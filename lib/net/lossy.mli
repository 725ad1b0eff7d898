(** Raw datagram layer: lossy, duplicating and (via the {!Netem} model)
    reordering; FIFO per channel by default (a physical link), optionally
    fully reordering.

    The hostile medium underneath the paper's channel assumption; {!Arq}
    builds the assumed reliable FIFO channel on top of it by running the
    {!Gbn} core at window 1 with one-bit sequence numbers. That protocol
    is sound over lossy-duplicating FIFO links and provably not over
    reordering ones — pass [~fifo:false] to see it break.

    Per-datagram fates come from {!Netem.sample} — the same decision
    function the live runtime applies at its socket seam. *)

open Gmp_base

type 'm t

val of_model :
  ?fifo:bool -> engine:Gmp_sim.Engine.t -> rng:Gmp_sim.Rng.t -> Netem.t -> 'm t
(** A link driven by a fault model — the one a live experiment tunes and
    the simulator replays. [fifo] (default true): per-channel in-order
    delivery, except for copies the model holds back to reorder them. *)

val set_handler : 'm t -> (dst:Pid.t -> src:Pid.t -> 'm -> unit) -> unit
val send : 'm t -> src:Pid.t -> dst:Pid.t -> 'm -> unit

val model : 'm t -> Netem.t
val datagrams_sent : 'm t -> int
val datagrams_lost : 'm t -> int
val datagrams_duplicated : 'm t -> int
val datagrams_reordered : 'm t -> int
