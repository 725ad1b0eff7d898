(* Unit tests for the heartbeat failure detector (F1) and the scripted
   oracle. *)

open Gmp_base
open Gmp_detector

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let p i = Pid.make i

(* A self-contained two-party setup: the engine carries beats by scheduling
   calls directly (no network needed for unit-testing the detector). *)
let make ~interval ~timeout ~peers =
  let engine = Gmp_sim.Engine.create () in
  let beats = ref [] in
  let suspects = ref [] in
  let now () = Gmp_sim.Engine.now engine in
  let set_timer ~delay f =
    let h = Gmp_sim.Engine.schedule engine ~delay f in
    { Gmp_platform.Platform.cancel =
        (fun () -> Gmp_sim.Engine.cancel engine h) }
  in
  let d =
    Heartbeat.create ~now ~set_timer ~interval ~timeout
      ~send_beats:(fun qs -> beats := List.rev_append qs !beats)
      ~peers:(fun () -> peers ())
      ~suspect:(fun q -> suspects := q :: !suspects)
      ()
  in
  (engine, d, beats, suspects)

let test_beats_sent () =
  let engine, d, beats, _ =
    make ~interval:1.0 ~timeout:5.0 ~peers:(fun () -> [ p 1; p 2 ])
  in
  Heartbeat.start d;
  Gmp_sim.Engine.run ~until:3.5 engine;
  (* Ticks at 1, 2, 3: two peers each. *)
  check int "beats" 6 (List.length !beats)

let test_silent_peer_suspected_once () =
  let engine, d, _, suspects =
    make ~interval:1.0 ~timeout:3.0 ~peers:(fun () -> [ p 1 ])
  in
  Heartbeat.start d;
  Gmp_sim.Engine.run ~until:20.0 engine;
  check (Alcotest.list int) "suspected exactly once" [ 1 ]
    (List.map Pid.id !suspects)

let test_live_peer_not_suspected () =
  let engine, d, _, suspects =
    make ~interval:1.0 ~timeout:3.0 ~peers:(fun () -> [ p 1 ])
  in
  Heartbeat.start d;
  (* Feed beats every 2 time units, well within the timeout. *)
  let rec feed t =
    if t < 20.0 then
      ignore
        (Gmp_sim.Engine.schedule_at engine ~time:t (fun () ->
             Heartbeat.beat_received d ~from:(p 1);
             feed (t +. 2.0))
          : Gmp_sim.Engine.handle)
  in
  feed 0.5;
  Gmp_sim.Engine.run ~until:20.0 engine;
  check int "never suspected" 0 (List.length !suspects)

let test_suspicion_after_silence () =
  let engine, d, _, suspects =
    make ~interval:1.0 ~timeout:3.0 ~peers:(fun () -> [ p 1 ])
  in
  Heartbeat.start d;
  (* Beats until t = 5, then silence: suspicion must land after ~8. *)
  List.iter
    (fun t ->
      ignore
        (Gmp_sim.Engine.schedule_at engine ~time:t (fun () ->
             Heartbeat.beat_received d ~from:(p 1))
          : Gmp_sim.Engine.handle))
    [ 1.0; 3.0; 5.0 ];
  Gmp_sim.Engine.run ~until:7.9 engine;
  check int "not yet" 0 (List.length !suspects);
  Gmp_sim.Engine.run ~until:10.0 engine;
  check int "suspected after timeout" 1 (List.length !suspects)

let test_grace_period_for_new_peer () =
  let current = ref [ p 1 ] in
  let engine, d, _, suspects =
    make ~interval:1.0 ~timeout:3.0 ~peers:(fun () -> !current)
  in
  Heartbeat.start d;
  (* p1 beats fine; p2 appears at t = 10 and beats from 11. It must get a
     full timeout of grace, not an instant suspicion. *)
  let rec feed_p1 t =
    if t < 20.0 then
      ignore
        (Gmp_sim.Engine.schedule_at engine ~time:t (fun () ->
             Heartbeat.beat_received d ~from:(p 1);
             feed_p1 (t +. 1.5))
          : Gmp_sim.Engine.handle)
  in
  feed_p1 0.5;
  ignore
    (Gmp_sim.Engine.schedule_at engine ~time:10.0 (fun () ->
         current := [ p 1; p 2 ])
      : Gmp_sim.Engine.handle);
  let rec feed_p2 t =
    if t < 20.0 then
      ignore
        (Gmp_sim.Engine.schedule_at engine ~time:t (fun () ->
             Heartbeat.beat_received d ~from:(p 2);
             feed_p2 (t +. 1.5))
          : Gmp_sim.Engine.handle)
  in
  feed_p2 11.0;
  Gmp_sim.Engine.run ~until:20.0 engine;
  check int "nobody suspected" 0 (List.length !suspects)

let test_forget_allows_fresh_monitoring () =
  let engine, d, _, suspects =
    make ~interval:1.0 ~timeout:3.0 ~peers:(fun () -> [ p 1 ])
  in
  Heartbeat.start d;
  Gmp_sim.Engine.run ~until:10.0 engine;
  check int "suspected" 1 (List.length !suspects);
  Heartbeat.forget d (p 1);
  (* After forgetting, the peer gets grace again and can be re-suspected
     (used for reincarnations). *)
  Gmp_sim.Engine.run ~until:20.0 engine;
  check int "suspected again after forget" 2 (List.length !suspects)

let test_beat_from_non_peer_ignored () =
  (* A beat from a process outside the peer set (departed, or never a
     member) must not create tracking state: otherwise a dead peer's
     last in-flight beat resurrects its entry after [forget]. *)
  let engine, d, _, suspects =
    make ~interval:1.0 ~timeout:3.0 ~peers:(fun () -> [ p 1 ])
  in
  Heartbeat.start d;
  Heartbeat.beat_received d ~from:(p 5);
  check int "stranger not tracked" 0 (Heartbeat.tracked d);
  (* A late beat from a forgotten (departed) peer is equally ignored. *)
  Gmp_sim.Engine.run ~until:10.0 engine;
  check int "p1 suspected" 1 (List.length !suspects);
  Heartbeat.forget d (p 1);
  let tracked_before = Heartbeat.tracked d in
  Heartbeat.beat_received d ~from:(p 5);
  check int "late stranger beat still ignored" tracked_before
    (Heartbeat.tracked d)

let test_departed_peer_pruned () =
  (* Peers that leave the view must drop out of [last_heard] at the next
     tick, not linger forever. *)
  let current = ref [ p 1; p 2 ] in
  let engine, d, _, _ =
    make ~interval:1.0 ~timeout:3.0 ~peers:(fun () -> !current)
  in
  Heartbeat.start d;
  Heartbeat.beat_received d ~from:(p 1);
  Heartbeat.beat_received d ~from:(p 2);
  check int "both tracked" 2 (Heartbeat.tracked d);
  current := [ p 1 ];
  Gmp_sim.Engine.run ~until:2.5 engine;
  check int "departed peer pruned at tick" 1 (Heartbeat.tracked d)

let test_stop () =
  let engine, d, beats, _ =
    make ~interval:1.0 ~timeout:3.0 ~peers:(fun () -> [ p 1 ])
  in
  Heartbeat.start d;
  Gmp_sim.Engine.run ~until:2.5 engine;
  let sent = List.length !beats in
  Heartbeat.stop d;
  Gmp_sim.Engine.run ~until:10.0 engine;
  check int "no beats after stop" sent (List.length !beats);
  check bool "not running" false (Heartbeat.is_running d)

let test_invalid_config () =
  let engine = Gmp_sim.Engine.create () in
  check bool "timeout <= interval rejected" true
    (try
       ignore
         (Heartbeat.create ~now:(fun () -> Gmp_sim.Engine.now engine)
            ~set_timer:(fun ~delay f ->
              let h = Gmp_sim.Engine.schedule engine ~delay f in
              { Gmp_platform.Platform.cancel =
                  (fun () -> Gmp_sim.Engine.cancel engine h) })
            ~interval:2.0 ~timeout:1.0
            ~send_beats:(fun _ -> ())
            ~peers:(fun () -> [])
            ~suspect:(fun _ -> ())
            ());
       false
     with Invalid_argument _ -> true)

(* ---- equivalence with the list-scanning detector ----

   [Oracle] is the earlier detector, kept verbatim as a test oracle: a
   last-heard table plus a fired set, with [is_peer] a scan of [peers ()]
   on every beat and an O(peers^2) prune on every tick. Random op sequences
   drive it and {!Heartbeat} side by side; every suspicion (pid and virtual
   time) and [tracked] must agree after every step. *)

module Oracle = struct
  type t = {
    now : unit -> float;
    set_timer : delay:float -> (unit -> unit) -> Gmp_platform.Platform.timer;
    interval : float;
    timeout : float;
    send_beats : Pid.t list -> unit;
    peers : unit -> Pid.t list;
    suspect : Pid.t -> unit;
    last_heard : float Pid.Tbl.t;
    mutable running : bool;
    mutable pending : Gmp_platform.Platform.timer option;
    mutable suspects_fired : Pid.Set.t;
  }

  let create ~now ~set_timer ~interval ~timeout ~send_beats ~peers ~suspect
      () =
    { now; set_timer; interval; timeout; send_beats; peers; suspect;
      last_heard = Pid.Tbl.create 16; running = false; pending = None;
      suspects_fired = Pid.Set.empty }

  let is_peer t pid = List.exists (Pid.equal pid) (t.peers ())

  let beat_received t ~from =
    if is_peer t from then Pid.Tbl.replace t.last_heard from (t.now ())

  let forget t pid =
    Pid.Tbl.remove t.last_heard pid;
    t.suspects_fired <- Pid.Set.remove pid t.suspects_fired

  let prune t peers =
    let stale =
      Pid.Tbl.fold
        (fun pid _ acc ->
          if List.exists (Pid.equal pid) peers then acc else pid :: acc)
        t.last_heard []
    in
    List.iter (fun pid -> forget t pid) stale;
    t.suspects_fired <-
      Pid.Set.filter (fun pid -> List.exists (Pid.equal pid) peers)
        t.suspects_fired

  let check_peer t now pid =
    let deadline_start =
      match Pid.Tbl.find_opt t.last_heard pid with
      | Some heard -> heard
      | None ->
        Pid.Tbl.replace t.last_heard pid now;
        now
    in
    if now -. deadline_start > t.timeout
       && not (Pid.Set.mem pid t.suspects_fired)
    then begin
      t.suspects_fired <- Pid.Set.add pid t.suspects_fired;
      t.suspect pid
    end

  let tick t =
    if t.running then begin
      let now = t.now () in
      let peers = t.peers () in
      prune t peers;
      if peers <> [] then t.send_beats peers;
      List.iter (check_peer t now) peers
    end

  let start t =
    if not t.running then begin
      t.running <- true;
      let rec loop () =
        t.pending <- None;
        if t.running then begin
          tick t;
          if t.running then
            t.pending <- Some (t.set_timer ~delay:t.interval loop)
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

  let tracked t = Pid.Tbl.length t.last_heard

  type checkpoint = {
    cp_last_heard : (Pid.t * float) list;
    cp_running : bool;
    cp_pending : Gmp_platform.Platform.timer option;
    cp_suspects : Pid.Set.t;
  }

  let checkpoint t =
    { cp_last_heard =
        Pid.Tbl.fold (fun pid at acc -> (pid, at) :: acc) t.last_heard [];
      cp_running = t.running;
      cp_pending = t.pending;
      cp_suspects = t.suspects_fired }

  let restore t cp =
    Pid.Tbl.reset t.last_heard;
    List.iter (fun (pid, at) -> Pid.Tbl.replace t.last_heard pid at)
      cp.cp_last_heard;
    t.running <- cp.cp_running;
    t.pending <- cp.cp_pending;
    t.suspects_fired <- cp.cp_suspects
end

(* One detector with everything around it under the test's control: a
   clock, a single-slot timer (the detector keeps at most one pending tick),
   the peers list and the history of physical lists it has returned. The
   same ops applied to two worlds must leave identical observations. *)
type world = {
  clock : float ref;
  timer : (int * (unit -> unit)) option ref;
  current : Pid.t list ref;
  mutable history : Pid.t list list;
  log : (int * float) list ref;  (** suspicions, newest first *)
  mutable start : unit -> unit;
  mutable stop : unit -> unit;
  mutable beat : Pid.t -> unit;
  mutable forget : Pid.t -> unit;
  mutable tracked : unit -> int;
  mutable save : unit -> unit -> unit;  (** checkpoint; returns the restore *)
}

let world ~fresh ~react ~initial =
  let nop () = () in
  let w =
    { clock = ref 0.0; timer = ref None; current = ref initial;
      history = [ initial ]; log = ref []; start = nop; stop = nop;
      beat = ignore; forget = ignore; tracked = (fun () -> 0);
      save = (fun () -> nop) }
  in
  let ids = ref 0 in
  let set_timer ~delay:_ f =
    incr ids;
    let id = !ids in
    w.timer := Some (id, f);
    { Gmp_platform.Platform.cancel =
        (fun () ->
          match !(w.timer) with
          | Some (i, _) when i = id -> w.timer := None
          | _ -> ()) }
  in
  (* [fresh]: a new, equal list on every call - correct, just never
     physically the list last seen. *)
  let peers () = if fresh then List.map Fun.id !(w.current) else !(w.current) in
  (* [react]: the suspect callback forgets the suspect and drops it from
     the peers, re-entering the detector mid-tick as Member does. *)
  let suspect q =
    w.log := (Pid.id q, !(w.clock)) :: !(w.log);
    if react then begin
      w.forget q;
      w.current := List.filter (fun p -> not (Pid.equal p q)) !(w.current)
    end
  in
  let args k =
    k ~now:(fun () -> !(w.clock)) ~set_timer ~interval:1.0 ~timeout:3.0
      ~send_beats:ignore ~peers ~suspect ()
  in
  (w, args)

let oracle_world ~fresh ~react ~initial =
  let w, args = world ~fresh ~react ~initial in
  let d = args Oracle.create in
  w.start <- (fun () -> Oracle.start d);
  w.stop <- (fun () -> Oracle.stop d);
  w.beat <- (fun from -> Oracle.beat_received d ~from);
  w.forget <- Oracle.forget d;
  w.tracked <- (fun () -> Oracle.tracked d);
  w.save <-
    (fun () ->
      let cp = Oracle.checkpoint d in
      fun () -> Oracle.restore d cp);
  w

let heartbeat_world ~fresh ~react ~initial =
  let w, args = world ~fresh ~react ~initial in
  let d = args Heartbeat.create in
  w.start <- (fun () -> Heartbeat.start d);
  w.stop <- (fun () -> Heartbeat.stop d);
  w.beat <- (fun from -> Heartbeat.beat_received d ~from);
  w.forget <- Heartbeat.forget d;
  w.tracked <- (fun () -> Heartbeat.tracked d);
  w.save <-
    (fun () ->
      let cp = Heartbeat.checkpoint d in
      fun () -> Heartbeat.restore d cp);
  w

type op =
  | Advance of float
  | Beat of int  (** ids 0..7; peers are drawn from 0..5 *)
  | Tick
  | Forget of int
  | New_peers of int list  (** a freshly built list *)
  | Old_peers of int  (** re-return an earlier list, physically *)
  | Checkpoint
  | Restore of bool  (** also rewind the peers list to the checkpoint's *)
  | Stop_start

let random_op rng =
  let pick n = Random.State.int rng n in
  match pick 20 with
  | 0 | 1 | 2 -> Advance (float_of_int (pick 21) /. 10.0)
  | 3 | 4 | 5 | 6 | 7 | 8 -> Beat (pick 8)
  | 9 | 10 | 11 | 12 -> Tick
  | 13 -> Forget (pick 8)
  | 14 -> New_peers (List.filter (fun _ -> pick 3 > 0) [ 0; 1; 2; 3; 4; 5 ])
  | 15 | 16 -> Old_peers (pick 8)
  | 17 -> Checkpoint
  | 18 -> Restore (pick 2 = 0)
  | _ -> if pick 4 = 0 then Stop_start else Tick

(* Apply [op] to [w]; checkpoints are kept per world, newest first. *)
let apply w saved op =
  match op with
  | Advance dt -> w.clock := !(w.clock) +. dt
  | Beat i -> w.beat (p i)
  | Tick -> (
    match !(w.timer) with
    | None -> ()
    | Some (_, f) ->
      w.timer := None;
      f ())
  | Forget i -> w.forget (p i)
  | New_peers ids ->
    let l = List.map p ids in
    w.current := l;
    w.history <- l :: w.history
  | Old_peers k ->
    w.current := List.nth w.history (k mod List.length w.history)
  | Checkpoint ->
    let restore = w.save () in
    let clock = !(w.clock) and timer = !(w.timer) and peers = !(w.current) in
    saved :=
      (fun ~peers_too ->
        restore ();
        w.clock := clock;
        w.timer := timer;
        if peers_too then w.current := peers)
      :: !saved
  | Restore peers_too -> (
    match !saved with [] -> () | r :: _ -> r ~peers_too)
  | Stop_start ->
    w.stop ();
    w.start ()

let equivalent_runs (seed, fresh, react) =
  let rng = Random.State.make [| seed |] in
  let initial = List.map p [ 0; 1; 2; 3 ] in
  let a = oracle_world ~fresh ~react ~initial in
  let b = heartbeat_world ~fresh ~react ~initial in
  let sa = ref [] and sb = ref [] in
  a.start ();
  b.start ();
  let ok = ref true in
  for _ = 1 to 300 do
    let op = random_op rng in
    apply a sa op;
    apply b sb op;
    if !(a.log) <> !(b.log) || a.tracked () <> b.tracked () then ok := false
  done;
  !ok

let prop_matches_oracle =
  QCheck.Test.make ~name:"heartbeat: matches the list-scanning oracle"
    ~count:400
    QCheck.(triple (int_range 0 1_000_000) bool bool)
    equivalent_runs

(* The random runs must exercise what they compare: suspicions fire, some
   reactively, and [tracked] moves. *)
let test_oracle_runs_fire () =
  let suspicions = ref 0 and tracked_max = ref 0 in
  for seed = 1 to 50 do
    let rng = Random.State.make [| seed |] in
    let b =
      heartbeat_world ~fresh:false ~react:(seed mod 2 = 0)
        ~initial:(List.map p [ 0; 1; 2; 3 ])
    in
    let saved = ref [] in
    b.start ();
    for _ = 1 to 300 do
      apply b saved (random_op rng);
      tracked_max := max !tracked_max (b.tracked ())
    done;
    suspicions := !suspicions + List.length !(b.log)
  done;
  check bool "suspicions fire" true (!suspicions > 50);
  check bool "several peers tracked" true (!tracked_max >= 4)

let test_scripted () =
  let engine = Gmp_sim.Engine.create () in
  let fired = ref [] in
  let schedule_at ~time f =
    ignore
      (Gmp_sim.Engine.schedule_at engine ~time f : Gmp_sim.Engine.handle)
  in
  Scripted.install ~schedule_at
    [ Scripted.entry ~at:5.0 ~observer:(p 1) ~suspect:(p 2);
      Scripted.entry ~at:3.0 ~observer:(p 0) ~suspect:(p 1) ]
    ~fire:(fun ~observer ~suspect ->
      fired := (Pid.id observer, Pid.id suspect, Gmp_sim.Engine.now engine) :: !fired);
  Gmp_sim.Engine.run engine;
  check int "both fired" 2 (List.length !fired);
  check bool "in time order" true
    (match List.rev !fired with
     | [ (0, 1, t1); (1, 2, t2) ] -> t1 = 3.0 && t2 = 5.0
     | _ -> false)

let test_crash_script () =
  let engine = Gmp_sim.Engine.create () in
  let crashed = ref [] in
  let schedule_at ~time f =
    ignore
      (Gmp_sim.Engine.schedule_at engine ~time f : Gmp_sim.Engine.handle)
  in
  Scripted.crash_script ~schedule_at
    [ (2.0, p 3); (1.0, p 1) ]
    ~crash:(fun pid -> crashed := Pid.id pid :: !crashed);
  Gmp_sim.Engine.run engine;
  check (Alcotest.list int) "crash order" [ 1; 3 ] (List.rev !crashed)

let suite =
  [ Alcotest.test_case "heartbeat: beats sent per interval" `Quick
      test_beats_sent;
    Alcotest.test_case "heartbeat: silent peer suspected once" `Quick
      test_silent_peer_suspected_once;
    Alcotest.test_case "heartbeat: live peer not suspected" `Quick
      test_live_peer_not_suspected;
    Alcotest.test_case "heartbeat: suspicion after silence" `Quick
      test_suspicion_after_silence;
    Alcotest.test_case "heartbeat: grace for new peers" `Quick
      test_grace_period_for_new_peer;
    Alcotest.test_case "heartbeat: forget re-arms" `Quick
      test_forget_allows_fresh_monitoring;
    Alcotest.test_case "heartbeat: non-peer beats ignored" `Quick
      test_beat_from_non_peer_ignored;
    Alcotest.test_case "heartbeat: departed peers pruned" `Quick
      test_departed_peer_pruned;
    Alcotest.test_case "heartbeat: stop" `Quick test_stop;
    Alcotest.test_case "heartbeat: invalid config" `Quick test_invalid_config;
    QCheck_alcotest.to_alcotest prop_matches_oracle;
    Alcotest.test_case "heartbeat: oracle runs fire suspicions" `Quick
      test_oracle_runs_fire;
    Alcotest.test_case "scripted: suspicion entries" `Quick test_scripted;
    Alcotest.test_case "scripted: crash script" `Quick test_crash_script ]
