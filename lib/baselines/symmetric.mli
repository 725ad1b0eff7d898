(** Symmetric membership baseline, in the style of Bruso [5].

    No coordinator: every process floods its suspicions and removes a
    process once every view member has voted it out - about [(n-1)^2]
    messages per exclusion, the "order of magnitude more messages in all
    situations" the paper charges symmetric solutions with (§1, §8). *)

open Gmp_base

type t

val create : ?delay:Gmp_net.Delay.t -> ?seed:int -> n:int -> unit -> t
val trace : t -> Gmp_core.Trace.t
val stats : t -> Gmp_platform.Stats.t

val crash_at : t -> float -> Pid.t -> unit
val suspect_at : t -> float -> observer:Pid.t -> target:Pid.t -> unit
val run : ?until:float -> t -> unit

val views : t -> (Pid.t * int * Pid.t list) list
(** Final [(pid, version, members)] of the live processes. *)

val messages : t -> int
(** Suspicion messages sent. *)
