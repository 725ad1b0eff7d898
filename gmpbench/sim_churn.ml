(* Workload sim-churn: n=128 on the simulator under exponential delays.

   The schedule is a coordinator crash followed by alternating junior
   crashes and joins, spaced so that each change lands before the next. At
   this size heartbeat traffic makes the event queue, network, vector clock
   and heartbeat detector do almost all the work, while the member's
   reconfiguration and join paths still yield hundreds of latency samples.

   Untimed runs go through [Group], exactly as a user would drive it. The
   traced run rebuilds the same world by hand so it can wrap each node's
   [Platform.node] record; the two must agree on every count. *)

open Gmp_base
open Gmp_core
module Group = Gmp_runtime.Group
module Runtime = Gmp_runtime.Runtime
module Platform = Gmp_platform.Platform
module Engine = Gmp_sim.Engine
module Stats = Gmp_net.Stats

let n = 128

(* Exponential delays on FIFO channels block a channel behind one slow
   message. At mean 1.0 with a 15-unit timeout that alone produced false
   suspicions, and with them false exclusions, in three of seven seeds; at
   mean 0.5 the tail that long is negligible. *)
let config = { Config.default with Config.heartbeat_timeout = 15.0 }
let delay = Gmp_net.Delay.exponential ~mean:0.5

type schedule = {
  seed : int;
  crashes : (float * Pid.t) list;
  joins : (float * Pid.t * Pid.t) list;  (** time, joiner, contact *)
  horizon : float;
}

(* The coordinator crashes first; two junior crashes and two joins follow,
   alternating, one every [spacing] units, which is longer than a junior
   crash takes to be detected and committed at every member. The
   coordinator's crash needs a reconfiguration and gets [spacing + 10]. The
   run ends [tail] after the last change, a join, which commits within it.
   Victims are juniors drawn from p2..p(n-1); contacts are drawn from the
   never-killed rest, so every join has a live first contact. *)
let spacing = 25.0
let tail = 20.0

let schedule ~seed =
  let rng = Random.State.make [| seed; 0x6d70 |] in
  let jitter () = Random.State.float rng 3.0 in
  let t0 = 10.0 +. jitter () in
  let rec draw acc k =
    if k = 0 then acc
    else
      let p = Pid.make (2 + Random.State.int rng (n - 2)) in
      if Derive.mem p acc then draw acc k else draw (p :: acc) (k - 1)
  in
  let victims = draw [] 2 in
  let rec contact () =
    let p = Pid.make (1 + Random.State.int rng (n - 1)) in
    if Derive.mem p victims then contact () else p
  in
  let at k = t0 +. 10.0 +. (spacing *. float_of_int k) in
  { seed;
    crashes = (t0, Pid.make 0) :: List.mapi (fun i p -> (at ((2 * i) + 1), p)) victims;
    joins = List.init 2 (fun j -> (at ((2 * j) + 2), Pid.make (1000 + j), contact ()));
    horizon = at 4 +. tail }

let build s =
  let g = Group.create ~config ~delay ~seed:s.seed ~n () in
  List.iter (fun (t, p) -> Group.crash_at g t p) s.crashes;
  List.iter (fun (t, p, contact) -> Group.join_at g t p ~contact) s.joins;
  g

(* ---- one world, driven by [Group] or by the traced harness ---- *)

type world = {
  trace : Trace.t;
  engine : Engine.t;
  stats : Stats.t;
  initial : Pid.t list;
  members : unit -> Member.t list;
  check : unit -> Checker.violation list;
}

let of_group g =
  { trace = Group.trace g;
    engine = Group.engine g;
    stats = Group.stats g;
    initial = Group.initial g;
    members = (fun () -> Group.members g);
    check = (fun () -> Group.check g) }

(* What a run must reproduce exactly for the same seed. *)
type counts = { events : int; messages : int; trace_events : int }

let counts w =
  { events = Engine.fired_events w.engine;
    messages = Stats.total_sent w.stats;
    trace_events = Trace.length w.trace }

(* (pid, version, members) of every operational member holding a view. *)
let views members =
  List.filter_map
    (fun m ->
      if Member.operational m && Member.joined m then
        Some (Member.pid m, Member.version m, View.members (Member.view m))
      else None)
    members

let protocol_messages stats =
  List.fold_left
    (fun acc category -> acc + Stats.sent stats ~category)
    0 Wire.protocol_categories

(* Everything judged after a run: never part of a timed metric. *)
type verdict = {
  counts : counts;
  fate : Derive.fate;
  samples : Derive.samples;
  errors : string list;
  broken : bool;  (** checker violation or latency-definition drift *)
  protocol_msgs : int;
  changes : int;  (** membership changes installed: the final view version *)
  check_s : float;
  derive_s : float;
}

let judge s w =
  let violations, check_s, _ = Measure.timed w.check in
  let samples, derive_s, _ = Measure.timed (fun () -> Derive.samples w.trace) in
  let views = views (w.members ()) in
  let fate =
    Derive.judge ~initial:w.initial ~killed:(List.map snd s.crashes)
      ~joiners:(List.map (fun (_, p, _) -> p) s.joins)
      ~ever_members:(Derive.ever_members w.trace)
      ~survivor_views:(List.map (fun (p, _, v) -> (p, v)) views)
  in
  let changes = List.fold_left (fun acc (_, ver, _) -> max acc ver) 0 views in
  let broken =
    List.map (Fmt.str "checker: %a" Checker.pp_violation) violations
    @
    match Derive.check_counts w.trace samples with
    | Ok () -> []
    | Error m -> [ "latency: " ^ m ]
  in
  let errors =
    broken @ if Derive.failed fate > 0 then [ Derive.describe fate ] else []
  in
  { counts = counts w; fate; samples; errors; broken = broken <> [];
    protocol_msgs = protocol_messages w.stats; changes; check_s; derive_s }

(* ---- untraced repetition ---- *)

(* A repetition keeps its world only when asked: the others are compared
   by their counts, so a run need not hold every finished world. *)
type rep = {
  run_wall : float;
  run_cpu : float;
  words : float;
  rep_counts : counts;
  world : world option;
}

let untraced ~keep s =
  let g = build s in
  let w0 = Measure.minor_words () in
  let (), run_wall, run_cpu =
    Measure.timed (fun () -> Group.run ~until:s.horizon g)
  in
  let words = Measure.minor_words () -. w0 in
  let w = of_group g in
  { run_wall; run_cpu; words; rep_counts = counts w;
    world = (if keep then Some w else None) }

(* ---- traced repetition: the same world with every node's platform
   record wrapped in spans ---- *)

let span_names =
  [| "recv_heartbeat"; "recv_member"; "timer_heartbeat"; "timer_member";
     "every"; "send"; "broadcast"; "set_timer" |]

let recv_heartbeat = 0
let recv_member = 1
let timer_heartbeat = 2
let timer_member = 3
let every = 4
let send = 5
let broadcast = 6
let set_timer = 7

(* Heartbeat ticks are told apart from member timers by their delay: the
   detector re-arms with exactly its configured interval, and the member's
   own timers (join retry, reconfiguration-reuse grace) use other delays. A
   suspicion raised inside a tick runs member code inside that tick's span. *)
let wrap spans (node : Wire.t Platform.node) =
  let hb_interval = Config.heartbeat_interval_for config node.Platform.pid in
  let w kind f = Span.wrap spans kind f in
  { node with
    Platform.send =
      (fun ~dst ~category m -> w send (fun () -> node.Platform.send ~dst ~category m));
    broadcast =
      (fun ~dsts ~category m ->
        w broadcast (fun () -> node.Platform.broadcast ~dsts ~category m));
    set_receiver =
      (fun f ->
        node.Platform.set_receiver (fun ~src m ->
            let kind =
              match m with Wire.Heartbeat -> recv_heartbeat | _ -> recv_member
            in
            w kind (fun () -> f ~src m)));
    set_timer =
      (fun ~delay f ->
        let kind = if delay = hb_interval then timer_heartbeat else timer_member in
        w set_timer (fun () -> node.Platform.set_timer ~delay (fun () -> w kind f)));
    every =
      (fun ~interval f ->
        w set_timer (fun () -> node.Platform.every ~interval (fun () -> w every f)))
  }

(* [Group.create] and [Group.join_at], with wrapped platform records. *)
let traced_world spans s =
  let runtime = Runtime.create ~delay ~seed:s.seed () in
  let trace = Trace.create () in
  let initial = Pid.group n in
  Gmp_causality.Vector_clock.reserve initial;
  let members = ref [] in
  let spawn ?joiner pid =
    let node = wrap spans (Runtime.platform (Runtime.spawn runtime pid)) in
    let m = Member.create ?joiner ~node ~trace ~config ~initial () in
    members := m :: !members;
    m
  in
  let mem_of p = List.find (fun m -> Pid.equal (Member.pid m) p) !members in
  List.iter (fun p -> ignore (spawn p : Member.t)) initial;
  let engine = Runtime.engine runtime in
  let at time f = ignore (Engine.schedule_at engine ~time f : Engine.handle) in
  List.iter (fun (t, p) -> at t (fun () -> Member.inject_crash (mem_of p))) s.crashes;
  List.iter
    (fun (t, p, contact) ->
      at t (fun () ->
          let m = spawn ~joiner:true p in
          let others = List.filter (fun q -> not (Pid.equal q contact)) initial in
          Member.start_join m ~contacts:(contact :: others)))
    s.joins;
  let members () =
    List.sort (fun a b -> Pid.compare (Member.pid a) (Member.pid b)) !members
  in
  let check () =
    let dead =
      List.filter_map
        (fun m -> if Member.operational m then None else Some (Member.pid m))
        (members ())
    in
    let views = views (members ()) in
    let final_view =
      match views with
      | (_, v0, m0) :: rest
        when List.for_all (fun (_, v, m) -> v = v0 && List.equal Pid.equal m m0) rest ->
        m0
      | _ -> []
    in
    Checker.check_run trace ~initial ~surviving_views:views ~dead ~final_view
  in
  ( runtime,
    { trace; engine; stats = Runtime.stats runtime; initial; members; check } )

type traced = {
  t_wall : float;
  t_world : world;
  spans : Span.t;
}

let traced s =
  let spans = Span.create span_names in
  let runtime, world = traced_world spans s in
  let (), t_wall, _ =
    Measure.timed (fun () -> Runtime.run ~until:s.horizon runtime)
  in
  { t_wall; t_world = world; spans }
