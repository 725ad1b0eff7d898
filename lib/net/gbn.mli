(** Go-back-N: the one implementation of the paper's footnote-2 channel
    ("a (1-bit) sequence number on each message and an acknowledgement
    protocol"), as a pure state machine.

    It never reads a clock, arms a timer or touches a socket. Callers pass
    [now] into every step, hand each sender an [emit] function for its
    outgoing frames, and after every step re-arm their own timer from
    {!deadline}. Two shells drive it: the simulator's {!Arq} (window 1,
    sequence numbers mod 2 — the alternating-bit protocol) and the live
    node (unbounded window and sequence numbers).

    Sender: frames are numbered at {!send}; up to [window] of them are in
    flight, the rest wait in a numbered backlog. One timer per sender
    resends the whole window; each silent round doubles the timeout up to
    [rto_max], and ack progress resets it to [rto]. Receiver: delivers
    exactly the next expected number (FIFO, exactly once) and answers every
    data frame with a cumulative ack; there is no reorder buffer. *)

type t
(** Parameters, counters and histograms shared by every channel of one
    endpoint. *)

val create :
  ?registry:Gmp_obs.Obs.registry ->
  ?modulus:int ->
  window:int ->
  rto:float ->
  rto_max:float ->
  unit ->
  t
(** [modulus] bounds the numbers on the wire (default: unbounded). With
    [registry], the {!counters} are published as snapshot views, ack
    round-trips of never-retransmitted frames (Karn's rule) go to the
    [arq.rtt] histogram and retransmit rounds per recovered quiet spell to
    [arq.backoff_rounds]. Raises [Invalid_argument] unless
    [0 < rto <= rto_max], [window >= 1] and a given [modulus] exceeds
    [window]. *)

val counters : t -> (string * int) list
(** In a stable order: [arq.data_frames_sent] (first transmissions),
    [arq.retransmits] (frames resent), [arq.retransmit_rounds] (timeouts
    that resent something), [arq.dups_suppressed] (data frames behind the
    expected number), [arq.out_of_window_drops] (data frames ahead of
    it). *)

val retransmits : t -> int

(** {2 Sender} *)

type 'f sender

val sender : t -> emit:('f -> unit) -> 'f sender

val send : 'f sender -> now:float -> (int -> 'f) -> unit
(** Number the next frame: the builder gets its wire sequence number, and
    the frame it returns is what [emit] (re)sends. Goes out at once when
    the window has room, else waits in the backlog. *)

val on_ack : 'f sender -> now:float -> int -> unit
(** A cumulative ack (the receiver's next expected wire number) arrived:
    retire what it covers, then fill the window from the backlog. Stale
    acks change nothing. *)

val on_timeout : 'f sender -> now:float -> unit
(** The caller's timer for {!deadline} fired: resend the window and back
    off. *)

val deadline : 'f sender -> float
(** When the caller's retransmit timer should fire; [infinity] while
    nothing is in flight. *)

val idle : 'f sender -> bool
(** Nothing in flight: every frame sent is acked or torn down. *)

val teardown : 'f sender -> unit
(** Abandon the window and the backlog (the peer is deemed gone); their
    numbers are handed out again. *)

(** {2 Receiver} *)

type receiver

val receiver : t -> receiver

val accept : receiver -> int -> bool
(** A data frame with this wire number arrived: [true] iff it is the next
    expected one and must be delivered. Either way the caller then sends
    {!ack}. *)

val ack : receiver -> int
(** The cumulative ack to send: the next expected wire number. *)
