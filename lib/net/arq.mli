(** The paper's footnoted channel implementation: reliable FIFO over a
    lossy medium via "a (1-bit) sequence number on each message and an
    acknowledgement protocol" — the alternating-bit / stop-and-wait
    protocol, one instance per ordered process pair. The protocol is
    {!Gbn}'s at window 1 with sequence numbers mod 2 and a fixed timeout;
    this module carries its frames over {!Lossy} on engine timers.

    Messages handed to {!send} reach the upper layer exactly once, in
    order, despite loss and duplication underneath — provided the medium
    is FIFO per channel (a physical link; the default). Over arbitrarily
    reordering links the 1-bit protocol is provably unsound (a stale frame
    or ack can cross two bit flips); create with [~fifo:false] to
    demonstrate it. *)

open Gmp_base

type 'm t

val create :
  ?loss:float ->
  ?duplicate:float ->
  ?rto:float ->
  ?fifo:bool ->
  ?registry:Gmp_obs.Obs.registry ->
  engine:Gmp_sim.Engine.t ->
  rng:Gmp_sim.Rng.t ->
  delay:Delay.t ->
  unit ->
  'm t
(** Defaults: 20% loss, 5% duplication, retransmit every 5 time units.

    With [registry], the channel layer publishes [arq.datagrams_sent] and
    [arq.datagrams_lost] (acks included) beside {!Gbn.counters} as
    snapshot views, and records virtual-clock ack round-trips into the
    [arq.rtt] histogram — sampling only datagrams never retransmitted
    (Karn's rule), since a sample spanning a retransmission cannot be
    attributed to one flight. *)

val set_handler : 'm t -> (dst:Pid.t -> src:Pid.t -> 'm -> unit) -> unit
(** Upper-layer delivery: exactly once, per-channel FIFO. *)

val send : 'm t -> src:Pid.t -> dst:Pid.t -> 'm -> unit

val teardown : 'm t -> src:Pid.t -> dst:Pid.t -> unit
(** Tear down the sender side of the [src -> dst] channel: cancel the
    retransmit timer and drop the outstanding datagram and backlog. Call
    when [dst] is deemed crashed or faulty — otherwise the stop-and-wait
    loop retransmits forever toward a peer that will never ack, and the
    event queue never drains. Idempotent; never creates channel state. *)

val teardown_to : 'm t -> Pid.t -> unit
(** {!teardown} every existing sender channel whose destination is the
    given pid. *)

val retransmissions : 'm t -> int
val datagrams_sent : 'm t -> int
val datagrams_lost : 'm t -> int
