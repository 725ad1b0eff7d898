(* The four workloads, each run for a fixed measuring time, judged, and
   reduced to metrics. A run's end-to-end figures are medians over repeated
   set-ups and repetitions inside the run; the traced run adds per-layer
   figures measured from outside the library. *)

open Gmp_base
module M = Measure

type result = {
  attempted : int;
  failed : int;
  errors : string list;
  e2e : M.metric list;  (** every end-to-end metric, [None] where n/a *)
  layers : (string * float) list;  (** per-layer figures this workload has *)
}

(* Every end-to-end figure. [cpu_s] is the CPU time of the fixed work
   (sim: one simulation of the horizon; explore: one exhaustion of the
   bound; live: all nodes over the window). [cpu_rel] is the same cost in
   units of [Measure.reference], timed many times in the same run (sim and
   explore: after every repetition; live: throughout the window), which
   takes out how fast the shared host happened to run. [mem_mb] is the
   memory the work takes (sim and explore: the peak OCaml heap of the first
   repetition, which starts from an empty heap; live: the largest peak
   resident set of any node). *)
(* [setup_s] is the median set-up wall time at a nominal host speed: scaled
   by this over the run's median reference timing. Raw, it moves with the
   host: four sim-churn runs in a row set up in 5.2 to 7.9 ms, and in 6.9
   to 7.5 ms scaled; the raw median of ten explore-assurance runs moved by
   30% between two sets twenty minutes apart. [setup_wall_s] is the raw
   median. *)
let nominal_reference_s = 0.003

let e2e ~setup ~cpu ~reference ?sim_run ?verdict ?distinct ?node_cpu_pct ~mem
    ?(latency = []) ?false_exclusions ?msgs_per_change ~attempted ~failed () =
  let opt name unit_ v = M.metric name unit_ v in
  let per_reference samples =
    match (M.median samples, M.median reference) with
    | Some c, Some r -> Some (c /. r)
    | _ -> None
  in
  [ M.metric ~count:(List.length setup) "setup_s" "s"
      (Option.map (fun x -> x *. nominal_reference_s) (per_reference setup));
    M.of_samples "setup_wall_s" "s" M.median setup;
    M.of_reps "cpu_s" "s" cpu;
    M.of_samples "reference_s" "s" M.median reference;
    M.metric ~count:(List.length reference) "cpu_rel" "x" (per_reference cpu);
    (match sim_run with
    | Some l -> M.of_reps "sim.run_s" "s" l
    | None -> opt "sim.run_s" "s" None);
    (match verdict with
    | Some l -> M.of_reps "explore.verdict_s" "s" l
    | None -> opt "explore.verdict_s" "s" None);
    opt "explore.distinct" "count" (Option.map float_of_int distinct);
    opt "live.node_cpu_pct" "%" node_cpu_pct;
    M.some "mem_mb" "MB" mem;
    M.of_samples "detect.crash_to_view_p50" "s" (M.nearest_rank 50.0) latency;
    M.of_samples "detect.crash_to_view_p90" "s" (M.tail 90.0) latency;
    opt "detect.false_exclusions" "count" (Option.map float_of_int false_exclusions);
    opt "proto.msgs_per_change" "messages" msgs_per_change;
    M.metric ~count:attempted "ops.failed_ratio" "ratio" (M.ratio failed attempted) ]

let median_exn l = Option.get (M.median l)

(* The reference timings taken after each repetition of sim or explore. *)
let references () = List.init 40 (fun _ -> M.reference_cpu ())

(* Repeat [f] at least [min_reps] times, and then as long as one more
   repetition of average length still ends within [seconds]. *)
let repeat ~seconds ~min_reps f =
  let t0 = M.now_ns () in
  let rec go acc k =
    let elapsed = M.secs_since t0 in
    if k >= min_reps && elapsed *. float_of_int (k + 1) /. float_of_int k > seconds
    then List.rev acc
    else go (f k :: acc) (k + 1)
  in
  go [] 0

(* ---- sim-churn ---- *)

module S = Sim_churn

let first_world reps = Option.get (List.hd reps).S.world

(* The first repetition is judged in full; every other one must reproduce
   its counts exactly, or all of its changes count as failed. *)
let sim_judge_reps sched reps =
  let first = S.judge sched (first_world reps) in
  let per_rep = first.S.fate.Derive.attempted in
  let mismatched =
    List.filter (fun r -> r.S.rep_counts <> first.S.counts) (List.tl reps)
  in
  let failed =
    (if first.S.broken then per_rep else Derive.failed first.S.fate)
    + (per_rep * List.length mismatched)
  in
  let errors =
    first.S.errors
    @ List.map
        (fun _ -> "sim: a same-seed repetition diverged in events, messages or trace")
        mismatched
  in
  (first, per_rep * List.length reps, failed, errors)

let sim_e2e ~seed ~seconds =
  let sched = S.schedule ~seed in
  (* The peak heap is read after the first repetition, which starts from an
     empty heap, so it does not depend on how many repetitions ran. *)
  let top_heap = ref 0.0 in
  (* Set-ups are timed between repetitions, so their median spans the run's
     changing host conditions like the work does, and after a full major
     collection, so they are not charged for the repetition's garbage. *)
  let triples =
    repeat ~seconds ~min_reps:3 (fun k ->
        let r = S.untraced ~keep:(k = 0) sched in
        if k = 0 then top_heap := M.top_heap_mb ();
        Gc.full_major ();
        let setups =
          List.init 6 (fun _ ->
              let _, wall, _ = M.timed (fun () -> S.build sched) in
              wall)
        in
        (r, references (), setups))
  in
  let reps = List.map (fun (r, _, _) -> r) triples in
  let v, attempted, failed, errors = sim_judge_reps sched reps in
  { attempted; failed; errors; layers = [];
    e2e =
      e2e
        ~setup:(List.concat_map (fun (_, _, s) -> s) triples)
        ~cpu:(List.map (fun r -> r.S.run_cpu) reps)
        ~reference:(List.concat_map (fun (_, rf, _) -> rf) triples)
        ~sim_run:(List.map (fun r -> r.S.run_wall) reps)
        ~mem:!top_heap ~latency:v.S.samples.Derive.crash_to_view
        ~false_exclusions:(List.length v.S.fate.Derive.falsely_excluded)
        ~msgs_per_change:
          (float_of_int v.S.protocol_msgs /. float_of_int (max 1 v.S.changes))
        ~attempted ~failed () }

let reconfigs trace =
  Gmp_core.Trace.fold trace ~init:(0, 0) ~f:(fun (i, c) (e : Gmp_core.Trace.event) ->
      match e.kind with
      | Gmp_core.Trace.Initiated_reconf _ -> (i + 1, c)
      | Gmp_core.Trace.Committed { commit_kind = `Reconf; _ } -> (i, c + 1)
      | _ -> (i, c))

let sim_layers ~seed ~seconds =
  let sched = S.schedule ~seed in
  (* Untraced and traced repetitions alternate, so the tracing overhead is
     taken under the same machine conditions. *)
  let pairs =
    repeat ~seconds ~min_reps:2 (fun k ->
        let u = S.untraced ~keep:(k = 0) sched in
        let t = S.traced sched in
        (u, t))
  in
  let us = List.map fst pairs and ts = List.map snd pairs in
  let v, attempted, failed, errors = sim_judge_reps sched us in
  let traced_errors =
    List.filter_map
      (fun t ->
        if S.counts t.S.t_world <> v.S.counts then
          Some "sim: the traced world diverged from the untraced one"
        else None)
      ts
  in
  let t = List.hd ts in
  let w = first_world us in
  let events = Gmp_sim.Engine.fired_events w.S.engine in
  let messages = Gmp_net.Stats.total_sent w.S.stats in
  let heartbeats = Gmp_net.Stats.sent w.S.stats ~category:"heartbeat" in
  let run_wall = median_exn (List.map (fun r -> r.S.run_wall) us) in
  let traced_wall = median_exn (List.map (fun t -> t.S.t_wall) ts) in
  let sp = t.S.spans in
  let callbacks =
    List.fold_left
      (fun acc k -> acc +. Span.total_s sp k)
      0.0
      [ "recv_heartbeat"; "recv_member"; "timer_heartbeat"; "timer_member"; "every" ]
  in
  let scheduling = Span.total_s sp "set_timer" in
  let net_s = Span.total_s sp "send" +. Span.total_s sp "broadcast" in
  let hb_self = Span.self_s sp "recv_heartbeat" +. Span.self_s sp "timer_heartbeat" in
  let member_self =
    Span.self_s sp "recv_member" +. Span.self_s sp "timer_member" +. Span.self_s sp "every"
  in
  let merges = Span.calls sp "recv_heartbeat" + Span.calls sp "recv_member" in
  let peak = Gmp_sim.Engine.peak_queue_length w.S.engine in
  let eq_ns = Replay.event_queue_ns ~size:peak in
  let merge_ns = Replay.merge_tick_ns ~width:S.n in
  let ns_per_send = net_s /. float_of_int (max 1 messages) *. 1e9 in
  (* Counts times unit costs: queue add+pop per event, the send path per
     message, a clock merge per delivery, and the detector's and members'
     own self time. The rest of sim.run_s is what no layer figure covers. *)
  let explained =
    (float_of_int events *. 2.0 *. eq_ns *. 1e-9)
    +. (float_of_int messages *. ns_per_send *. 1e-9)
    +. (float_of_int merges *. merge_ns *. 1e-9)
    +. hb_self +. member_self
  in
  let initiated, committed = reconfigs w.S.trace in
  { attempted; failed; errors = errors @ traced_errors; e2e = [];
    layers =
      [ ("engine.events_fired", float_of_int events);
        ("engine.peak_heap_entries", float_of_int peak);
        ("engine.ns_per_event", run_wall /. float_of_int events *. 1e9);
        ("engine.self_s", t.S.t_wall -. callbacks +. scheduling);
        ("event_queue.ns_per_op", eq_ns);
        ("network.messages_sent", float_of_int messages);
        ("network.heartbeat_share", float_of_int heartbeats /. float_of_int messages);
        ("network.ns_per_send", ns_per_send);
        ("vector_clock.merges", float_of_int merges);
        ("vector_clock.merge_tick_ns", merge_ns);
        ("heartbeat.ticks", float_of_int (Span.calls sp "timer_heartbeat"));
        ("heartbeat.self_s", hb_self);
        ( "detector.crash_to_suspicion_p50",
          Option.value ~default:0.0 (M.median v.S.samples.Derive.crash_to_suspicion) );
        ("member.deliveries", float_of_int (Span.calls sp "recv_member"));
        ("member.self_s", member_self);
        ("member.reconfig_initiated", float_of_int initiated);
        ( "member.reconfig_success_ratio",
          Option.value ~default:0.0 (M.ratio committed initiated) );
        ( "alloc.words_per_event",
          median_exn (List.map (fun r -> r.S.words) us) /. float_of_int events );
        ("checker.check_s", v.S.check_s);
        ("latency.derive_s", v.S.derive_s);
        ("trace.events", float_of_int (Gmp_core.Trace.length w.S.trace));
        ("sim.trace_overhead_s", traced_wall -. run_wall);
        ("sim.unexplained_share", (run_wall -. explained) /. run_wall) ] }

(* ---- explore-assurance ---- *)

module E = Explore_wl

(* [between ()] runs after each repetition, beside the reference timings;
   what it returns is collected. *)
let explore_reps ~seed ~seconds ~min_reps ~between =
  (* the peak heap is read after the first repetition, as in [sim_e2e] *)
  let top_heap = ref 0.0 in
  let triples =
    repeat ~seconds ~min_reps (fun k ->
        let r = E.rep ~seed in
        if k = 0 then top_heap := M.top_heap_mb ();
        (r, references (), between ()))
  in
  let reps = List.map (fun (r, _, _) -> r) triples in
  let stats r = r.E.outcome.Gmp_explore.Explore.stats in
  let first = List.hd reps in
  let diverged =
    List.exists (fun r -> stats r <> stats first) (List.tl reps)
  in
  let rep_errors = List.map E.errors reps in
  let executions r = (stats r).Gmp_explore.Explore.executions in
  let attempted = List.fold_left (fun acc r -> acc + executions r) 0 reps in
  (* a failed repetition counts all of its executions as failed *)
  let failed =
    List.fold_left2
      (fun acc r errs -> if errs = [] then acc else acc + executions r)
      0 reps rep_errors
  in
  let errors =
    List.concat rep_errors
    @ if diverged then [ "explore: repetitions disagree on the search statistics" ] else []
  in
  ( reps,
    List.concat_map (fun (_, rf, _) -> rf) triples,
    List.concat_map (fun (_, _, b) -> b) triples,
    stats first, !top_heap, attempted, failed, errors )

let explore_e2e ~seed ~seconds =
  (* One set-up takes microseconds, too little to time alone: each sample
     is the mean over a batch of them, and batches run between repetitions
     so their median spans the run. *)
  let batch = 200 in
  let setups () =
    List.init 8 (fun _ ->
        let (), wall, _ =
          M.timed (fun () -> for _ = 1 to batch do E.setup ~seed done)
        in
        wall /. float_of_int batch)
  in
  let reps, reference, setup, stats, top_heap, attempted, failed, errors =
    explore_reps ~seed ~seconds ~min_reps:3 ~between:setups
  in
  { attempted; failed; errors; layers = [];
    e2e =
      e2e ~setup
        ~cpu:(List.map (fun r -> r.E.cpu) reps) ~reference
        ~verdict:(List.map (fun r -> r.E.wall) reps)
        ~distinct:stats.Gmp_explore.Explore.distinct ~mem:top_heap ~attempted ~failed () }

let explore_layers ~seed ~seconds =
  let reps, _, _, s, _, attempted, failed, errors =
    explore_reps ~seed ~seconds ~min_reps:2 ~between:(fun () -> [])
  in
  let module X = Gmp_explore.Explore in
  let checkpoint_us, restore_us, fingerprint_us = E.snapshot_costs ~seed in
  let exec = float_of_int s.X.executions in
  { attempted; failed; errors; e2e = [];
    layers =
      [ ("alloc.words_per_execution", median_exn (List.map (fun r -> r.E.words) reps) /. exec);
        ("explore.executions", exec);
        ("explore.frames", float_of_int s.X.frames);
        ("explore.state_pruned", float_of_int s.X.state_pruned);
        ("explore.sleep_pruned", float_of_int s.X.sleep_pruned);
        ("explore.distinct_ratio", float_of_int s.X.distinct /. exec);
        ( "explore.us_per_execution",
          median_exn (List.map (fun r -> r.E.wall) reps) /. exec *. 1e6 );
        ("group.checkpoint_us", checkpoint_us);
        ("group.restore_us", restore_us);
        ("group.fingerprint_us", fingerprint_us) ] }

(* ---- live-udp and live-tcp-lossy ---- *)

module L = Live

type live_run = {
  run : L.run;
  trace : Gmp_core.Trace.t;
  samples : Derive.samples;
  fate : Derive.fate;
  setup : float option;
  errors : string list;
  check_s : float;
  derive_s : float;
}

(* gmp-cluster picks each process's port by binding port 0 and releasing
   it, one process after the other, and the nodes bind with SO_REUSEADDR;
   so about one cluster in a hundred at this size hands two processes the
   same port, and one of them then receives nothing. Such a cluster is not
   the workload: it is launched again with the same inputs, at most twice,
   and the relaunch is reported on stderr. *)
let relaunches = 2

let live_once ~bin_dir ~dir shape ~seed ~window sched =
  let rec launch k =
    let run = L.run_cluster ~bin_dir ~dir shape ~seed ~window sched in
    if run.L.shared_ports = [] || k = relaunches then run
    else begin
      Printf.eprintf "gmpbench: gmp-cluster shared ports %s; launching again\n%!"
        (String.concat " " run.L.shared_ports);
      launch (k + 1)
    end
  in
  let run = launch 0 in
  let per_node = try L.events dir with Failure m -> prerr_endline m; [] in
  let trace = Gmp_live.Trace_io.reassemble per_node in
  let crashes = run.L.kill_times in
  let samples, derive_s, _ = M.timed (fun () -> Derive.samples ~crashes trace) in
  let killed = List.map snd sched.L.kills in
  let joiners = List.map snd sched.L.joins in
  let views = L.survivor_views run in
  let fate =
    Derive.judge ~initial:(Pid.group L.nodes) ~killed ~joiners
      ~ever_members:(Derive.ever_members trace)
      ~survivor_views:(List.map (fun (p, _, v) -> (p, v)) views)
  in
  (* The cluster's own verdict is re-derived here to time the checker. *)
  let check_s =
    let _, wall, _ =
      M.timed (fun () ->
          Gmp_core.Checker.check_run trace ~initial:(Pid.group L.nodes)
            ~surviving_views:views
            ~dead:(L.pid_list (L.summary_field run "dead"))
            ~final_view:(L.pid_list (L.summary_field run "final_view")))
    in
    wall
  in
  let errors =
    (if run.L.shared_ports <> [] then
       [ "gmp-cluster shared ports " ^ String.concat " " run.L.shared_ports ]
     else [])
    @ (if run.L.exit_code <> 0 then
       [ Printf.sprintf "gmp-cluster exited %d (logs kept in %s)" run.L.exit_code dir ]
     else [])
    @ (if List.length crashes <> List.length killed then
         [ Printf.sprintf "saw %d of %d kills" (List.length crashes) (List.length killed) ]
       else [])
    @ (match Derive.check_counts ~crashes trace samples with
      | Ok () -> []
      | Error m -> [ "latency: " ^ m ])
    @
    if Derive.failed fate > 0 then
      [ Derive.describe fate ]
    else []
  in
  { run; trace; samples; fate; setup = L.setup_s run per_node; errors;
    check_s; derive_s }

let live_failed r =
  if r.run.L.exit_code <> 0 then r.fate.Derive.attempted
  else min r.fate.Derive.attempted (Derive.failed r.fate)

let no_changes = { L.kills = []; joins = [] }

let node_cpu r =
  let cpu = List.fold_left (fun acc s -> acc + s.L.cpu) 0 r.run.L.sampled in
  let alive =
    List.fold_left (fun acc s -> acc +. (s.L.last_t -. s.L.first_t)) 0.0 r.run.L.sampled
  in
  (float_of_int cpu *. 1e-9, alive)

(* Set-up probes: short clusters with no changes, so a run sets up more
   than once and reports the median. As many run after the measured cluster
   as before it, so the median spans the run's changing host conditions. *)
let probes_per_side = 3

let live_e2e ~bin_dir ~out_dir shape ~seed ~seconds =
  let probe i =
    live_once ~bin_dir ~dir:(Filename.concat out_dir (Printf.sprintf "probe%d" i))
      shape ~seed ~window:0.3 no_changes
  in
  let before = List.init probes_per_side probe in
  let sched = L.schedule shape ~seed ~window:seconds in
  let r = live_once ~bin_dir ~dir:(Filename.concat out_dir "run") shape ~seed ~window:seconds sched in
  let probes = before @ List.init probes_per_side (fun i -> probe (probes_per_side + i)) in
  let setups = List.filter_map (fun r -> r.setup) (r :: probes) in
  let cpu, alive = node_cpu r in
  let protocol =
    List.fold_left
      (fun acc c -> acc + L.counter r.run ("msg." ^ c ^ ".sent"))
      0 Gmp_core.Wire.protocol_categories
  in
  let probe_errors =
    List.concat_map (fun p -> List.map (fun e -> "setup probe: " ^ e) p.errors) probes
  in
  let errors =
    r.errors @ probe_errors
    @ if List.length setups <> (2 * probes_per_side) + 1 then [ "a node never logged its first install" ] else []
  in
  let rss = List.fold_left (fun acc s -> max acc s.L.rss_kb) 0 r.run.L.sampled in
  { attempted = r.fate.Derive.attempted; failed = live_failed r; errors; layers = [];
    e2e =
      e2e ~setup:setups ~cpu:[ cpu ] ~reference:r.run.L.reference ~node_cpu_pct:(100.0 *. cpu /. alive)
        ~mem:(float_of_int rss *. 1024.0 /. 1e6) ~latency:r.samples.Derive.crash_to_view
        ~false_exclusions:(List.length r.fate.Derive.falsely_excluded)
        ~msgs_per_change:
          (float_of_int protocol /. float_of_int (max 1 (L.final_version r.run)))
        ~attempted:r.fate.Derive.attempted ~failed:(live_failed r) () }

let live_layers ~bin_dir ~out_dir shape ~seed ~seconds =
  let sched = L.schedule shape ~seed ~window:seconds in
  let r = live_once ~bin_dir ~dir:(Filename.concat out_dir "run") shape ~seed ~window:seconds sched in
  let c = L.counter r.run in
  let frames_sent = c "transport.datagrams_sent" + c "transport.frames_sent" in
  let frames_received = c "transport.datagrams_received" + c "transport.frames_received" in
  let data = c "arq.data_frames_sent" and retransmits = c "arq.retransmits" in
  let width = L.nodes + 1 in
  let codec =
    Replay.codec (Replay.frame_mix ~width ~data ~acks:(max 0 (frames_sent - data - retransmits)))
  in
  let cpu, _ = node_cpu r in
  { attempted = r.fate.Derive.attempted; failed = live_failed r; errors = r.errors; e2e = [];
    layers =
      [ ( "detector.crash_to_suspicion_p50",
          Option.value ~default:0.0 (M.median r.samples.Derive.crash_to_suspicion) );
        ("checker.check_s", r.check_s);
        ("latency.derive_s", r.derive_s);
        ("trace.events", float_of_int (Gmp_core.Trace.length r.trace));
        ("codec.encode_ns", codec.Replay.encode_ns);
        ("codec.decode_ns", codec.Replay.decode_ns);
        ("codec.words_per_frame", codec.Replay.words_per_frame);
        ("timers.ns_per_op", Replay.timers_ns ~pending:(2 * width));
        ( "node.cpu_us_per_frame",
          cpu *. 1e6 /. float_of_int (max 1 (frames_sent + frames_received)) );
        ("transport.frames_sent", float_of_int frames_sent);
        ("transport.frames_received", float_of_int frames_received);
        ("transport.no_route_drops", float_of_int (c "transport.no_route_drops"));
        ("framing.ns_per_frame", codec.Replay.framing_ns);
        ("transport.reconnects", float_of_int (c "transport.reconnects"));
        ("transport.conn_failures", float_of_int (c "transport.conn_failures"));
        ("transport.half_open_drops", float_of_int (c "transport.half_open_drops"));
        ("arq.data_frames_sent", float_of_int data);
        ("arq.retransmits", float_of_int retransmits);
        ( "arq.useful_ratio",
          Option.value ~default:0.0 (M.ratio data (data + retransmits)) );
        ("arq.out_of_window_drops", float_of_int (c "arq.out_of_window_drops"));
        ("arq.backoff_rounds", float_of_int (c "arq.retransmit_rounds"));
        ("netem.dropped", float_of_int (c "netem.dropped")) ] }
