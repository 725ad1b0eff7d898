(* gmpbench: the repository's benchmark.

     gmpbench.exe --workload W --seed N --seconds S --trace 0|1
     gmpbench.exe --manifest

   A run prints every end-to-end figure of its workload by name, unit and
   sample count, then, as its last line, one JSON object with the keys
   correct, attempted, failed and metrics. With --trace 0 the metrics are
   the end-to-end figures the manifest gates on; with --trace 1 they are the
   per-layer figures. The exit code is 1 when any output was incorrect.
   --manifest prints BENCHMARK.json, the list of workloads and metrics. *)

module J = Gmp_base.Json
module M = Measure

type workload = { name : string; why : string }

let workloads =
  [ { name = "sim-churn";
      why =
        "n=128 simulator churn: heartbeats make event queue, network, vector \
         clock and detector do the work; Member reconfig and join paths give \
         hundreds of latency samples" };
    { name = "explore-assurance";
      why =
        "n=3 model checked to exhaustion at depth 18: Member, Group \
         checkpoint/restore/fingerprint, pruning and checker do the work; \
         n-wide costs are negligible" };
    { name = "live-udp";
      why =
        "8 gmp-node processes on loopback UDP, 0.05/0.5 s heartbeat, join/kill \
         cycle: codec, UDP transport, loss-free ARQ, timers and poll loop; no \
         simulator" };
    { name = "live-tcp-lossy";
      why =
        "same cluster over TCP at 0.5/2.5 s heartbeat, 3% loss, 20+-10 ms \
         latency: ARQ retransmission and backoff, stream framing and \
         reconnects toward killed peers" } ]

(* The end-to-end figures every workload has, with the bound by which each
   may worsen before a change counts as a regression. The other end-to-end
   figures exist on some workloads only and are printed. *)
let gated = [ ("setup_s", "s", 0.25); ("cpu_rel", "x", 0.25); ("mem_mb", "MB", 0.2) ]

let per_layer =
  [ ("engine.events_fired", "count", "lower");
    ("engine.peak_heap_entries", "count", "lower");
    ("engine.ns_per_event", "ns", "lower");
    ("engine.self_s", "s", "lower");
    ("event_queue.ns_per_op", "ns", "lower");
    ("network.messages_sent", "count", "lower");
    ("network.heartbeat_share", "ratio", "lower");
    ("network.ns_per_send", "ns", "lower");
    ("vector_clock.merges", "count", "lower");
    ("vector_clock.merge_tick_ns", "ns", "lower");
    ("heartbeat.ticks", "count", "lower");
    ("heartbeat.self_s", "s", "lower");
    ("detector.crash_to_suspicion_p50", "s", "lower");
    ("member.deliveries", "count", "lower");
    ("member.self_s", "s", "lower");
    ("member.reconfig_initiated", "count", "lower");
    ("member.reconfig_success_ratio", "ratio", "higher");
    ("alloc.words_per_event", "words", "lower");
    ("alloc.words_per_execution", "words", "lower");
    ("explore.executions", "count", "lower");
    ("explore.frames", "count", "lower");
    ("explore.state_pruned", "count", "higher");
    ("explore.sleep_pruned", "count", "higher");
    ("explore.distinct_ratio", "ratio", "higher");
    ("explore.us_per_execution", "us", "lower");
    ("group.checkpoint_us", "us", "lower");
    ("group.restore_us", "us", "lower");
    ("group.fingerprint_us", "us", "lower");
    ("checker.check_s", "s", "lower");
    ("latency.derive_s", "s", "lower");
    ("trace.events", "count", "lower");
    ("codec.encode_ns", "ns", "lower");
    ("codec.decode_ns", "ns", "lower");
    ("codec.words_per_frame", "words", "lower");
    ("timers.ns_per_op", "ns", "lower");
    ("node.cpu_us_per_frame", "us", "lower");
    ("transport.frames_sent", "count", "lower");
    ("transport.frames_received", "count", "lower");
    ("transport.no_route_drops", "count", "lower");
    ("framing.ns_per_frame", "ns", "lower");
    ("transport.reconnects", "count", "lower");
    ("transport.conn_failures", "count", "lower");
    ("transport.half_open_drops", "count", "lower");
    ("arq.data_frames_sent", "count", "lower");
    ("arq.retransmits", "count", "lower");
    ("arq.useful_ratio", "ratio", "higher");
    ("arq.out_of_window_drops", "count", "lower");
    ("arq.backoff_rounds", "count", "lower");
    ("netem.dropped", "count", "lower");
    ("sim.trace_overhead_s", "s", "lower");
    ("sim.unexplained_share", "ratio", "lower") ]

let run_seconds = 25

let manifest () =
  J.obj
    [ ("command", J.list [ J.string "python3"; J.string "gmpbench/run.py" ]);
      ("paths", J.list [ J.string "gmpbench" ]);
      ("run_seconds", J.int run_seconds);
      ( "workloads",
        J.list
          (List.map
             (fun w -> J.obj [ ("name", J.string w.name); ("why", J.string w.why) ])
             workloads) );
      ( "end_to_end",
        J.list
          (List.map
             (fun (name, unit_, bound) ->
               J.obj
                 [ ("name", J.string name); ("unit", J.string unit_);
                   ("better", J.string "lower"); ("bound", J.float bound) ])
             gated) );
      ( "per_layer",
        J.list
          (List.map
             (fun (name, unit_, better) ->
               J.obj
                 [ ("name", J.string name); ("unit", J.string unit_);
                   ("better", J.string better) ])
             per_layer) ) ]

let run ~workload ~seed ~seconds ~trace ~bin_dir ~out_dir =
  let live shape =
    (* One directory per run; its logs are kept only when the run failed. *)
    let out_dir =
      Filename.concat out_dir (Printf.sprintf "%s-%d" workload (Unix.getpid ()))
    in
    let r =
      if trace then Workloads.live_layers ~bin_dir ~out_dir shape ~seed ~seconds
      else Workloads.live_e2e ~bin_dir ~out_dir shape ~seed ~seconds
    in
    if r.Workloads.errors = [] then Live.rm_rf out_dir;
    r
  in
  match workload with
  | "sim-churn" ->
    if trace then Workloads.sim_layers ~seed ~seconds
    else Workloads.sim_e2e ~seed ~seconds
  | "explore-assurance" ->
    if trace then Workloads.explore_layers ~seed ~seconds
    else Workloads.explore_e2e ~seed ~seconds
  | "live-udp" -> live Live.udp
  | "live-tcp-lossy" -> live Live.tcp_lossy
  | w -> invalid_arg ("unknown workload " ^ w)

let print_metric (m : M.metric) =
  match m.M.value with
  | Some v ->
    Printf.printf "  %-34s %14.6g %-8s (n=%d)%s\n" m.M.name v m.M.unit_ m.M.count
      (if m.M.reps = [] then ""
       else "  reps: " ^ String.concat " " (List.map (Printf.sprintf "%.4g") m.M.reps))
  | None -> Printf.printf "  %-34s %14s %-8s\n" m.M.name "n/a" m.M.unit_

let report ~workload ~seed ~seconds ~trace (r : Workloads.result) =
  Printf.printf "gmpbench %s seed=%d seconds=%g trace=%b\n" workload seed seconds trace;
  List.iter print_metric r.Workloads.e2e;
  let layer name = List.assoc_opt name r.Workloads.layers in
  if trace then
    List.iter
      (fun (name, unit_, _) ->
        match layer name with
        | Some v -> Printf.printf "  %-34s %14.6g %s\n" name v unit_
        | None -> Printf.printf "  %-34s %14s %s\n" name "n/a" unit_)
      per_layer;
  List.iter (fun e -> Printf.printf "  error: %s\n" e) r.Workloads.errors;
  let correct = r.Workloads.errors = [] in
  let metric name unit_ value =
    (name, J.obj [ ("value", J.float value); ("unit", J.string unit_) ])
  in
  let metrics =
    if trace then
      (* A layer this workload does not exercise reads 0. *)
      List.map
        (fun (name, unit_, _) -> metric name unit_ (Option.value ~default:0.0 (layer name)))
        per_layer
    else
      List.map
        (fun (name, unit_, _) ->
          let m = List.find (fun (m : M.metric) -> m.M.name = name) r.Workloads.e2e in
          metric name unit_ (Option.value ~default:nan m.M.value))
        gated
  in
  Printf.printf "%s\n%!"
    (J.to_compact_string
       (J.obj
          [ ("correct", J.bool correct);
            ("attempted", J.int (max 1 r.Workloads.attempted));
            ("failed", J.int r.Workloads.failed);
            ("metrics", J.obj metrics) ]));
  if correct then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref (float_of_int run_seconds) in
  let trace = ref 0 and bin_dir = ref "_build/default/bin" in
  let out_dir = ref ".gmpbench-out" and manifest_only = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W  one of the manifest's workloads");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) figures");
      ("--bin-dir", Arg.Set_string bin_dir, "DIR  where gmp_cluster.exe and gmp_node.exe are");
      ("--out-dir", Arg.Set_string out_dir, "DIR  scratch space for live logs");
      ("--manifest", Arg.Set manifest_only, " print BENCHMARK.json and exit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "gmpbench --workload W --seed N --seconds S --trace 0|1";
  if !manifest_only then print_endline (J.to_string (manifest ()))
  else if not (List.exists (fun w -> w.name = !workload) workloads) then begin
    prerr_endline ("gmpbench: unknown workload " ^ !workload);
    exit 2
  end
  else
    exit
      (report ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
         (run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
            ~bin_dir:!bin_dir ~out_dir:!out_dir))
