(** Wall-clock timers for the live poll loop.

    Entries sit in the simulator's {!Gmp_sim.Event_queue}; cancellation
    marks an entry dead and it is discarded when it reaches the top. All
    callbacks run on the loop thread (inside {!fire_due}); nothing here is
    thread-safe, and nothing needs to be. *)

type t
type entry

val create : unit -> t

val schedule : t -> at:float -> (unit -> unit) -> entry
(** Absolute deadline on the caller's clock (non-negative, not NaN).
    Entries with equal deadlines fire in scheduling order. *)

val cancel : entry -> unit
(** Idempotent; cancelling a fired entry is a no-op. *)

val next_deadline : t -> float option
(** Earliest live deadline — the poll loop's select-timeout bound. *)

val fire_due : t -> now:float -> int
(** Run every live entry with [at <= now] {e at entry}, in deadline order;
    returns how many fired. The due set is snapshotted before any callback
    runs: entries a callback schedules — even in the past — wait for the
    next call, so a zero-delay rescheduling timer cannot starve the poll
    loop. Cancellations by earlier callbacks in the batch are honoured. *)

val pending : t -> int
(** Live entries still scheduled (test instrumentation). *)
