(** Heartbeat failure detector — the paper's F1 (Observation) source.

    Emits a beat to every current peer each [interval] and fires [suspect]
    once per peer whose last beat is older than [timeout]. Guarantees the
    paper's liveness assumption (a real crash is suspected in finite time);
    may fire spuriously under delay — the protocol must tolerate that.

    Platform-agnostic: time and scheduling come in as closures (normally
    the owning node's {!Gmp_platform.Platform.node} operations), so the
    same detector runs on the simulator's virtual clock and on wall
    clocks.

    Cost model: {!beat_received} is O(1) (one table lookup and an epoch
    compare) and a tick is O(peers). All per-peer state is one table keyed
    by pid, and the detector rebuilds its notion of "current peers" —
    O(peers) — only when [peers ()] returns a list that is not physically
    the one it last saw. *)

open Gmp_base

type t

val create :
  now:(unit -> float) ->
  set_timer:(delay:float -> (unit -> unit) -> Gmp_platform.Platform.timer) ->
  interval:float ->
  timeout:float ->
  send_beats:(Pid.t list -> unit) ->
  peers:(unit -> Pid.t list) ->
  suspect:(Pid.t -> unit) ->
  unit ->
  t
(** [peers] is consulted on every tick and every beat, so the monitored set
    tracks the current view. It should return a memoized list — the same
    physical list until the peer set changes — as [Member]'s does; a
    closure that builds a fresh, equal list on every call stays correct
    but makes every beat O(peers). [timeout] must exceed [interval].
    [send_beats] receives the whole (non-empty) peer list once per beat
    round: callers should fan it out through their platform's broadcast,
    which stamps one causal event for the round — n individual sends would
    each tick and republish the sender's vector clock, turning every round
    into O(n^2) clock copies. *)

val start : t -> unit
val stop : t -> unit
val is_running : t -> bool

val beat_received : t -> from:Pid.t -> unit
(** Call when a heartbeat message arrives. Beats from processes not in the
    current [peers ()] are dropped — a late beat from a forgotten peer must
    not resurrect its tracking slot. *)

val forget : t -> Pid.t -> unit
(** Drop state about a departed peer (allows a reincarnation to be
    monitored afresh). Peers that depart via a view change without an
    explicit [forget] are pruned on the next tick. *)

val tracked : t -> int
(** Number of peers with tracking state (heard from, or checked by a tick,
    and not since forgotten or pruned); bounded by the current peer set
    once a tick has run. *)

type checkpoint
(** Capture of the detector's mutable state (per-peer slots, the peer list
    they were synced from, running flag, pending-tick handle). Only
    meaningful together with a checkpoint of the platform that owns the
    detector's timers — the simulator's engine restore resurrects the
    pending tick's handle in place. Valid across any number of restores. *)

val checkpoint : t -> checkpoint
val restore : t -> checkpoint -> unit
