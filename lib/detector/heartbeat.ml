(* Heartbeat failure detector: the paper's F1 (Observation) source.

   Each process periodically beats to its peers; silence past the timeout
   triggers [suspect]. The paper is agnostic about the mechanism and only
   needs it to fire in finite time after a real crash; this one does (beats
   from a crashed process stop, so its peers' timeouts expire). Like any
   timeout detector in an asynchronous system it can also fire spuriously
   under long delays - exactly the "perceived failures" the protocol is
   designed to tolerate.

   All per-peer state is one table of slots, each stamped with the epoch of
   the last peer list that contained its pid. The epoch advances only when
   [peers ()] returns a list that is not physically the one last synced, so
   "is [from] a current peer?" is one lookup and one compare. Beats from
   non-peers are dropped (a late beat from a suspected-and-forgotten peer
   must not resurrect its slot), and each tick prunes stale-epoch slots, so
   the table stays bounded by the peer set under churn. *)

open Gmp_base

(* [heard.at]: the last beat, or the first check (which starts a new peer's
   grace); nan until either happens, and the slot counts as untracked. A
   float-only record stores it unboxed, so a beat writes no pointer. *)
type stamp = { mutable at : float }
type slot = { heard : stamp; mutable fired : bool; mutable epoch : int }

type t = {
  now : unit -> float;
  set_timer : delay:float -> (unit -> unit) -> Gmp_platform.Platform.timer;
  interval : float;
  timeout : float;
  send_beats : Pid.t list -> unit;
      (* one call per beat round: the platform fans it out as an
         indivisible broadcast, so the round costs one causal event (one
         vector-clock tick, one published snapshot) however many peers
         there are *)
  peers : unit -> Pid.t list;
  suspect : Pid.t -> unit;
  slots : slot Pid.Tbl.t;
  mutable synced : Pid.t list; (* the peers list [epoch] was stamped from *)
  mutable epoch : int;
  mutable running : bool;
  mutable pending : Gmp_platform.Platform.timer option;
      (* the scheduled next tick, so [stop] can cancel it instead of leaving
         the closure live in the heap until its fire time *)
}

let create ~now ~set_timer ~interval ~timeout ~send_beats ~peers ~suspect () =
  if interval <= 0.0 then invalid_arg "Heartbeat.create: bad interval";
  if timeout <= interval then
    invalid_arg "Heartbeat.create: timeout must exceed interval";
  { now; set_timer; interval; timeout; send_beats; peers; suspect;
    slots = Pid.Tbl.create 16; synced = []; epoch = 0;
    running = false; pending = None }

(* Stamp every current peer with a fresh epoch, creating untracked slots for
   newcomers; departed peers keep their old epoch until the next prune. *)
let sync t =
  let peers = t.peers () in
  if peers != t.synced then begin
    t.synced <- peers;
    t.epoch <- t.epoch + 1;
    List.iter
      (fun pid ->
        match Pid.Tbl.find t.slots pid with
        | s -> s.epoch <- t.epoch
        | exception Not_found ->
          Pid.Tbl.add t.slots pid
            { heard = { at = Float.nan }; fired = false; epoch = t.epoch })
      peers
  end;
  peers

let beat_received t ~from =
  ignore (sync t : Pid.t list);
  match Pid.Tbl.find t.slots from with
  | (s : slot) when s.epoch = t.epoch -> s.heard.at <- t.now ()
  | _ | (exception Not_found) -> ()

let forget t pid =
  match Pid.Tbl.find t.slots pid with
  | s -> s.heard.at <- Float.nan; s.fired <- false
  | exception Not_found -> ()

(* Drop slots of processes that are no longer peers (departed via a view
   change that never called [forget]). Keys are collected before removal -
   mutating a table during fold is undefined. *)
let prune t =
  Pid.Tbl.fold
    (fun pid (s : slot) acc -> if s.epoch = t.epoch then acc else pid :: acc)
    t.slots []
  |> List.iter (Pid.Tbl.remove t.slots)

(* [pid] has a slot: [sync] made it, and [prune], which ran first, keeps it. *)
let check_peer t now pid =
  let s = Pid.Tbl.find t.slots pid in
  if Float.is_nan s.heard.at then s.heard.at <- now
  else if now -. s.heard.at > t.timeout && not s.fired then begin
    s.fired <- true;
    t.suspect pid
  end

let tick t =
  if t.running then begin
    let now = t.now () in
    let peers = sync t in
    prune t;
    if peers <> [] then t.send_beats peers;
    List.iter (check_peer t now) peers
  end

let start t =
  if not t.running then begin
    t.running <- true;
    let rec loop () =
      (* This event is firing, so it is no longer pending: a [stop] from
         inside [tick] must not cancel an already-fired handle. *)
      t.pending <- None;
      if t.running then begin
        tick t;
        if t.running then t.pending <- Some (t.set_timer ~delay:t.interval loop)
      end
    in
    t.pending <- Some (t.set_timer ~delay:t.interval loop)
  end

let stop t =
  t.running <- false;
  match t.pending with
  | None -> ()
  | Some timer ->
    t.pending <- None;
    timer.Gmp_platform.Platform.cancel ()

let is_running t = t.running

let tracked t =
  Pid.Tbl.fold
    (fun _ s n -> if Float.is_nan s.heard.at then n else n + 1) t.slots 0

(* Checkpoints copy the mutable slots both ways. [pending] is saved by
   reference: the timer wrapper closes over the engine handle scheduled at
   capture time, and the engine's own restore resurrects that handle in
   place, so the saved wrapper cancels the right event after a restore. *)
type checkpoint = {
  cp_slots : (Pid.t * slot) list; cp_synced : Pid.t list; cp_epoch : int;
  cp_running : bool; cp_pending : Gmp_platform.Platform.timer option }

let copy s = { s with heard = { at = s.heard.at } }

let checkpoint t =
  { cp_slots = Pid.Tbl.fold (fun pid s acc -> (pid, copy s) :: acc) t.slots [];
    cp_synced = t.synced; cp_epoch = t.epoch;
    cp_running = t.running; cp_pending = t.pending }

let restore t cp =
  Pid.Tbl.reset t.slots;
  List.iter (fun (pid, s) -> Pid.Tbl.add t.slots pid (copy s)) cp.cp_slots;
  t.synced <- cp.cp_synced;
  t.epoch <- cp.cp_epoch;
  t.running <- cp.cp_running;
  t.pending <- cp.cp_pending
