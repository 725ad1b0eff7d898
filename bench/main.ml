(* Benchmark and reproduction harness.

   One section per artifact of the paper's quantitative content (see
   DESIGN.md's per-experiment index): Table 1, the Section 7.2 message
   complexity analysis (best cases, worst case, compressed sequences, the
   symmetric comparison), the Section 7.3 optimality claims (one-phase and
   two-phase counterexamples, Figure 11), the figure scenarios (3, 4, 7),
   the GMP property sweep, and the Appendix knowledge checks. Each section
   prints the paper's prediction next to the measured value.

   A final Bechamel section micro-benchmarks the protocol's building blocks
   and whole scenario executions. Run: dune exec bench/main.exe *)

open Gmp_base
open Gmp_core
module Group = Gmp_runtime.Group
open Gmp_workload

let pr = Fmt.pr

let section title = pr "@.=== %s ===@." title

let pass ok = if ok then "OK" else "MISMATCH"

(* ---------------------------------------------------------------- *)
(* Table 1: multiple reconfiguration initiations                    *)
(* ---------------------------------------------------------------- *)

let table1_row ~p_failed ~q_thinks_p_failed =
  let group = Group.create ~seed:30 ~n:4 () in
  let mgr = Pid.make 0 and pp = Pid.make 1 and qq = Pid.make 2 in
  Group.crash_at group 5.0 mgr;
  if p_failed then Group.crash_at group 6.0 pp;
  if q_thinks_p_failed then Group.suspect_at group 16.0 ~observer:qq ~target:pp;
  Group.run ~until:400.0 group;
  let initiated who =
    List.exists
      (fun (e : Trace.event) ->
        Pid.equal e.Trace.owner who
        &&
        match e.Trace.kind with
        | Trace.Initiated_reconf _ -> true
        | _ -> false)
      (Trace.events (Group.trace group))
  in
  let violations = Checker.check_safety (Group.trace group)
      ~initial:(Group.initial group) in
  (initiated pp, initiated qq, List.length violations)

let table1 () =
  section "Table 1: multiple reconfiguration initiations (n=4, Mgr crashed)";
  pr "%-10s %-12s | %-12s %-12s | %-14s %-14s %s@." "p actual" "q thinks p"
    "paper: q?" "paper: p?" "measured: q" "measured: p" "safety";
  let row (p_failed, q_thinks, paper_q, paper_p) =
    let p_init, q_init, viol = table1_row ~p_failed ~q_thinks_p_failed:q_thinks in
    pr "%-10s %-12s | %-12s %-12s | %-14b %-14b %s@."
      (if p_failed then "Failed" else "Up")
      (if q_thinks then "Failed" else "Up")
      paper_q paper_p q_init p_init
      (if viol = 0 then "OK" else "VIOLATED")
  in
  List.iter row
    [ (false, false, "No", "Yes");
      (true, false, "Eventually", "No");
      (false, true, "Yes", "Yes");
      (true, true, "Yes", "No") ]

(* ---------------------------------------------------------------- *)
(* E1-E3: best-case message complexities                             *)
(* ---------------------------------------------------------------- *)

let sizes = [ 4; 8; 16; 32; 64 ]

let e1 () =
  section "E1 (Fig 1/2, s7.2): plain two-phase exclusion, paper: 3n-5";
  pr "%-6s %-10s %-10s %s@." "n" "measured" "paper" "";
  List.iter
    (fun n ->
      let m, _ = Scenario.single_crash ~n () in
      let paper = (3 * n) - 5 in
      pr "%-6d %-10d %-10d %s  (violations: %d)@." n m.Scenario.protocol_msgs
        paper
        (pass (m.Scenario.protocol_msgs = paper))
        (List.length m.Scenario.violations))
    sizes

let e2 () =
  section "E2 (s3.1/s7.2): compressed second exclusion, paper: first 3n-5 + second <= 2(n-1)-3";
  pr "%-6s %-10s %-12s %s@." "n" "measured" "paper bound" "";
  List.iter
    (fun n ->
      let m, _ = Scenario.compressed_pair ~n () in
      let bound = (3 * n) - 5 + ((2 * (n - 1)) - 3) in
      pr "%-6d %-10d %-12d %s  (violations: %d)@." n m.Scenario.protocol_msgs
        bound
        (pass (m.Scenario.protocol_msgs <= bound))
        (List.length m.Scenario.violations))
    sizes

let e3 () =
  section "E3 (Fig 3-5, s7.2): one successful reconfiguration, paper: 5n-9";
  pr "%-6s %-10s %-10s %s@." "n" "measured" "paper" "";
  List.iter
    (fun n ->
      let m, _ = Scenario.mgr_crash ~n () in
      let paper = (5 * n) - 9 in
      pr "%-6d %-10d %-10d %s  (violations: %d)@." n m.Scenario.protocol_msgs
        paper
        (pass (m.Scenario.protocol_msgs = paper))
        (List.length m.Scenario.violations))
    sizes

(* ---------------------------------------------------------------- *)
(* E4: worst case - successive failed reconfigurations               *)
(* ---------------------------------------------------------------- *)

let e4 () =
  section "E4 (s7.2 worst case): tau successive failed reconfigurations, paper: O(n^2), ~(5/2)n^2 envelope";
  pr "%-6s %-7s %-10s %-14s %s@." "n" "kills" "measured" "(5/2)n^2" "";
  List.iter
    (fun n ->
      let kills = (n / 2) - 1 in
      let m, _ = Scenario.cascade ~n ~kills () in
      let envelope = 5 * n * n / 2 in
      pr "%-6d %-7d %-10d %-14d %s  (violations: %d)@." n kills
        m.Scenario.protocol_msgs envelope
        (pass (m.Scenario.protocol_msgs <= envelope))
        (List.length m.Scenario.violations))
    [ 8; 12; 16; 24 ];
  (* Quadratic growth check across the sweep. *)
  let cost n = (fst (Scenario.cascade ~n ~kills:((n / 2) - 1) ())).Scenario.protocol_msgs in
  let c8 = cost 8 and c16 = cost 16 in
  pr "growth 8->16: x%.1f (quadratic predicts ~x4)@."
    (float_of_int c16 /. float_of_int c8)

(* ---------------------------------------------------------------- *)
(* E5: n-1 successive failures - compression savings                 *)
(* ---------------------------------------------------------------- *)

let e5 () =
  section "E5 (s7.2): n-1 successive failures, paper: compressed total (n-1)^2 i.e. avg n-1 per exclusion; plain two-phase pays ~n/2-1 more per exclusion";
  pr "%-6s %-12s %-10s %-14s %-14s %s@." "n" "compressed" "(n-1)^2" "uncompressed"
    "saving/excl" "";
  List.iter
    (fun n ->
      let mc, _ = Scenario.sequence_all ~compressed:true ~n () in
      let mu, _ = Scenario.sequence_all ~compressed:false ~n () in
      let paper = (n - 1) * (n - 1) in
      let saving =
        float_of_int (mu.Scenario.protocol_msgs - mc.Scenario.protocol_msgs)
        /. float_of_int (n - 1)
      in
      pr "%-6d %-12d %-10d %-14d %-14.1f %s@." n mc.Scenario.protocol_msgs paper
        mu.Scenario.protocol_msgs saving
        (pass (mc.Scenario.protocol_msgs <= paper
               && mc.Scenario.protocol_msgs < mu.Scenario.protocol_msgs)))
    [ 4; 8; 16; 32 ]

(* ---------------------------------------------------------------- *)
(* E6: symmetric (Bruso-style) baseline                              *)
(* ---------------------------------------------------------------- *)

let e6 () =
  section "E6 (s1/s8): symmetric baseline vs this protocol, paper: 'an order of magnitude more messages'";
  pr "%-6s %-12s %-10s %-8s@." "n" "symmetric" "ours" "ratio";
  List.iter
    (fun n ->
      let sym, _ = Scenario.symmetric_single_crash ~n () in
      let ours, _ = Scenario.single_crash ~n () in
      pr "%-6d %-12d %-10d x%.1f@." n sym ours.Scenario.protocol_msgs
        (float_of_int sym /. float_of_int ours.Scenario.protocol_msgs))
    [ 8; 16; 32; 64 ]

(* ---------------------------------------------------------------- *)
(* C1 / C2: the optimality claims                                    *)
(* ---------------------------------------------------------------- *)

let c1 () =
  section "C1 (Claim 7.1): one-phase update under the proof's split schedule";
  let violations, views = Scenario.one_phase_split ~n:5 () in
  pr "one-phase baseline: %d GMP violations (paper: GMP-3 must break)  %s@."
    (List.length violations)
    (pass (violations <> []));
  List.iter
    (fun (p, v, members) ->
      pr "  %-4s v%d {%s}@." (Pid.to_string p) v
        (String.concat "," (List.map Pid.to_string members)))
    views;
  let violations', _ = Scenario.real_protocol_split ~n:5 () in
  pr "three-phase protocol, same schedule: %d violations  %s@."
    (List.length violations')
    (pass (violations' = []))

let c2 () =
  section "C2 (Claim 7.2 / Figure 11): two-phase reconfiguration must guess";
  let violations, views = Scenario.two_phase_fig11 () in
  pr "two-phase baseline: %d GMP violations (paper: GMP-3 must break)  %s@."
    (List.length violations)
    (pass (violations <> []));
  List.iter
    (fun (p, v, members) ->
      pr "  %-4s v%d {%s}@." (Pid.to_string p) v
        (String.concat "," (List.map Pid.to_string members)))
    views;
  let violations', group = Scenario.real_protocol_fig11 () in
  pr "three-phase protocol, same schedule: %d violations  %s@."
    (List.length violations')
    (pass (violations' = []));
  let p1_installs = Trace.installs_of (Group.trace group) (Pid.make 1) in
  pr "  (the would-be invisible committer is blocked at v%d)@."
    (List.fold_left (fun acc (v, _) -> max acc v) 0 p1_installs);
  let viol2, g2 = Scenario.real_protocol_two_proposals () in
  pr "GetStable variant (two proposals visible): %d violations  %s@."
    (List.length viol2) (pass (viol2 = []));
  (match List.assoc_opt 1 (Trace.installs_of (Group.trace g2) (Pid.make 2)) with
   | Some members ->
     pr "  v1 = {%s} (propagates the junior proposer's Remove(Mgr))@."
       (String.concat "," (List.map Pid.to_string members))
   | None -> pr "  v1 never installed?!@.")

(* ---------------------------------------------------------------- *)
(* F3 / F4 / F7: figure scenarios                                    *)
(* ---------------------------------------------------------------- *)

let f3 () =
  section "F3 (Figure 3): Mgr crash around its commit broadcast";
  let all_ok = ref true in
  List.iter
    (fun tenths ->
      let group = Group.create ~seed:(20 + tenths) ~n:6 () in
      Group.crash_at group 10.0 (Pid.make 5);
      Group.crash_at group (21.0 +. (0.5 *. float_of_int tenths)) (Pid.make 0);
      Group.run ~until:500.0 group;
      let violations = Group.check group in
      if violations <> [] then all_ok := false)
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ];
  pr "10 crash offsets across the commit window: unique view restored every time  %s@."
    (pass !all_ok)

let f4 () =
  section "F4 (Figure 4): concurrent reconfiguration initiators";
  let m, group = Scenario.concurrent_initiators ~n:6 () in
  let initiators =
    List.filter
      (fun (e : Trace.event) ->
        match e.Trace.kind with Trace.Initiated_reconf _ -> true | _ -> false)
      (Trace.events (Group.trace group))
  in
  pr "initiations observed: %d; violations: %d; views converged: %s  %s@."
    (List.length initiators)
    (List.length m.Scenario.violations)
    (match Group.agreed_view group with
     | Some (v, members) ->
       Fmt.str "v%d {%s}" v (String.concat "," (List.map Pid.to_string members))
     | None -> "NO")
    (pass (m.Scenario.violations = []))

let f7 () =
  section "F7 (Figure 7 / Props 5.1-5.4) and P1 (Theorems 6.1-6.2): GMP sweep under random churn";
  let seeds = 200 in
  let bad = ref 0 in
  for seed = 1 to seeds do
    let m, _ = Scenario.random_churn ~seed () in
    if m.Scenario.violations <> [] then incr bad
  done;
  pr "%d randomized churn runs (crashes, joins, spurious suspicions, cascades): %d with violations  %s@."
    seeds !bad (pass (!bad = 0))

(* ---------------------------------------------------------------- *)
(* A1: Appendix - epistemic analysis                                 *)
(* ---------------------------------------------------------------- *)

let a1 () =
  section "A1 (Appendix): knowledge checks on traces";
  let clean = Group.create ~seed:60 ~n:6 () in
  Group.crash_at clean 10.0 (Pid.make 5);
  Group.crash_at clean 40.0 (Pid.make 4);
  Group.run ~until:300.0 clean;
  let r1 = Epistemic.analyze (Group.trace clean) in
  pr "no-Mgr-failure run:     %a  %s@." Epistemic.pp_report r1
    (pass (Epistemic.ok r1));
  let reconf = Group.create ~seed:61 ~n:6 () in
  Group.crash_at reconf 10.0 (Pid.make 0);
  Group.run ~until:300.0 reconf;
  let r2 = Epistemic.analyze ~eq4:false (Group.trace reconf) in
  pr "Mgr-failure run (cuts): %a  %s@." Epistemic.pp_report r2
    (pass (Epistemic.ok r2));
  (* Tense-logic model checking on the clean run: Equation 4 for every
     process/version, and the E^y unwinding down to the initial view. *)
  let run = Knowledge.of_trace (Group.trace clean) in
  let eq4_ok =
    List.for_all
      (fun pid ->
        List.for_all
          (fun x -> Knowledge.valid run (Knowledge.equation_4 run ~p:pid ~x))
          [ 1; 2 ])
      (Knowledge.pids run)
  in
  pr "Equation 4 (tense logic, all p, x in {1,2}):  %s@." (pass eq4_ok);
  let unwind_ok =
    match Knowledge.unwinding run ~x:2 ~y:2 with
    | Some f -> Knowledge.valid run f
    | None -> false
  in
  pr "E^2 unwinding IsSysView(2) => (E<past>)^2 IsSysView(0):  %s@."
    (pass unwind_ok)

(* ---------------------------------------------------------------- *)
(* Ablations: design choices the paper leaves open                   *)
(* ---------------------------------------------------------------- *)

(* AB1: detector sensitivity. The paper treats detection as an oracle
   ("time is only an approximate tool"); any real timeout detector trades
   recovery latency against spurious exclusions. Sweep the timeout under
   heavy-tailed delays and measure both sides of the trade. *)
let ab1 () =
  section "AB1 (ablation): heartbeat timeout vs detection latency and spurious exclusions";
  pr "%-9s %-22s %-24s@." "timeout" "crash-recovery latency" "spurious exclusions";
  let jittery = Gmp_net.Delay.exponential ~mean:1.0 in
  List.iter
    (fun timeout ->
      let config =
        { Config.default with
          Config.heartbeat_timeout = timeout;
          Config.heartbeat_interval = 1.0 }
      in
      (* (a) latency: crash p(n-1) at t=20; when has every survivor
             installed v1? *)
      let latencies =
        List.filter_map
          (fun seed ->
            let group = Group.create ~config ~delay:jittery ~seed ~n:6 () in
            Group.crash_at group 20.0 (Pid.make 5);
            Group.run ~until:400.0 group;
            if Group.check group <> [] then None
            else
              let last_install =
                List.fold_left
                  (fun acc ((e : Trace.event), ver, _) ->
                    if ver = 1 then Float.max acc e.Trace.time else acc)
                  0.0
                  (Trace.installs (Group.trace group))
              in
              Some (last_install -. 20.0))
          (List.init 30 (fun i -> 100 + i))
      in
      (* (b) spurious exclusions: no crash at all; count processes that got
             excluded anyway because jitter outran the timeout. *)
      let spurious =
        List.fold_left
          (fun acc seed ->
            let group = Group.create ~config ~delay:jittery ~seed ~n:6 () in
            Group.run ~until:300.0 group;
            let survivors = List.length (Group.operational_members group) in
            acc + (6 - survivors))
          0
          (List.init 30 (fun i -> 200 + i))
      in
      match latencies with
      | [] -> pr "%-9.1f (no clean run at this timeout)       %d over 30 quiet runs@." timeout spurious
      | _ ->
        let s = Gmp_sim.Stat.of_list latencies in
        pr "%-9.1f p50=%6.1f p90=%6.1f      %d over 30 quiet runs@." timeout
          s.Gmp_sim.Stat.p50 s.Gmp_sim.Stat.p90 spurious)
    [ 3.0; 5.0; 8.0; 12.0; 20.0 ]

(* AB2: the §8 future-work optimization (pre-sent interrogation replies
   plus an initiation grace period). Reported as measured, including where
   it loses: the grace delays recovery, during which further failures
   accumulate. *)
let ab2 () =
  section "AB2 (ablation, s8 future work): reconfiguration phase reuse";
  pr "%-6s %-7s %-12s %-12s@." "n" "kills" "baseline" "with reuse";
  List.iter
    (fun n ->
      let kills = (n / 2) - 1 in
      let run config =
        let config = { config with Config.heartbeat_timeout = 8.0 } in
        let delay = Gmp_net.Delay.uniform ~lo:1.0 ~hi:3.0 in
        let group = Group.create ~config ~delay ~seed:1 ~n () in
        Group.crash_at group 10.0 (Pid.make 0);
        for i = 1 to kills - 1 do
          Group.crash_at group (10.0 +. (float_of_int i *. 14.0)) (Pid.make i)
        done;
        Group.run ~until:2000.0 group;
        (Group.protocol_messages group, List.length (Group.check group))
      in
      let base, v1 = run Config.default in
      let reuse, v2 = run Config.optimized in
      pr "%-6d %-7d %-12d %-12d %s@." n kills base reuse
        (if v1 = 0 && v2 = 0 then "OK (GMP holds in both)"
         else Fmt.str "VIOLATIONS base=%d reuse=%d" v1 v2))
    [ 8; 16; 24 ];
  pr "(reuse helps small cascades; at larger n its grace period lets more@.";
  pr " failures pile up per round - the trade-off the paper left open)@."

(* AB3: view-change latency distributions across seeds: exclusion vs
   reconfiguration (recovering from a coordinator crash costs one extra
   detection timeout plus two extra phases). *)
let ab3 () =
  section "AB3: view-change latency (crash at t=20 to last survivor's install of v1)";
  let latency ~crash_mgr seed =
    let group = Group.create ~seed ~n:8 () in
    Group.crash_at group 20.0 (Pid.make (if crash_mgr then 0 else 7));
    Group.run ~until:400.0 group;
    if Group.check group <> [] then None
    else
      let last =
        List.fold_left
          (fun acc ((e : Trace.event), ver, _) ->
            if ver = 1 then Float.max acc e.Trace.time else acc)
          0.0
          (Trace.installs (Group.trace group))
      in
      Some (last -. 20.0)
  in
  let seeds = List.init 100 (fun i -> 300 + i) in
  let excl = List.filter_map (latency ~crash_mgr:false) seeds in
  let reconf = List.filter_map (latency ~crash_mgr:true) seeds in
  pr "exclusion (junior crash):    %a@." Gmp_sim.Stat.pp (Gmp_sim.Stat.of_list excl);
  pr "reconfiguration (mgr crash): %a@." Gmp_sim.Stat.pp
    (Gmp_sim.Stat.of_list reconf)

(* AB4: the ARQ substrate - the cost of *implementing* the paper's assumed
   reliable FIFO channel over a lossy medium (datagrams per delivered
   message as loss grows). *)
let ab4 () =
  section "AB4: implementing the assumed channel (alternating-bit over loss)";
  pr "%-8s %-18s %-16s@." "loss" "datagrams/message" "retransmissions";
  List.iter
    (fun loss ->
      let engine = Gmp_sim.Engine.create () in
      let rng = Gmp_sim.Rng.create 17 in
      let delay = Gmp_net.Delay.uniform ~lo:0.5 ~hi:1.5 in
      let arq =
        Gmp_net.Arq.create ~loss ~duplicate:0.05 ~rto:5.0 ~engine ~rng ~delay ()
      in
      let received = ref 0 in
      Gmp_net.Arq.set_handler arq (fun ~dst:_ ~src:_ _ -> incr received);
      let n = 200 in
      for i = 1 to n do
        Gmp_net.Arq.send arq ~src:(Pid.make 0) ~dst:(Pid.make 1) i
      done;
      Gmp_sim.Engine.run engine;
      pr "%-8.2f %-18.2f %-16d %s@." loss
        (float_of_int (Gmp_net.Arq.datagrams_sent arq) /. float_of_int n)
        (Gmp_net.Arq.retransmissions arq)
        (if !received = n then "(all delivered in order)" else "LOST DATA"))
    [ 0.0; 0.1; 0.3; 0.5; 0.7 ]

(* ---------------------------------------------------------------- *)
(* E-scale: simulator throughput at n in {64, 128, 256}              *)
(* ---------------------------------------------------------------- *)

(* The §7.2 envelopes stop at n = 64 because the seed simulator did; this
   section exists so every later PR has a machine-readable perf trajectory
   (BENCH_scale.json) to beat: wall-clock, events fired, peak heap entries,
   messages and checker time per scenario. *)

module J = Gmp_base.Json

let time_of f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let time_reps ~reps f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

let total_sent stats =
  List.fold_left
    (fun acc (_, sent, _, _) -> acc + sent)
    0
    (Gmp_net.Stats.snapshot stats)

(* Wall times of the committed PR 1 BENCH_scale.json, embedded so the file
   this run emits carries its own before/after trajectory. *)
let pr1_wall =
  [ (("single-crash", 64), 2.5477469);
    (("single-crash", 128), 25.203512);
    (("single-crash", 256), 216.997837);
    (("churn", 32), 0.390711069);
    (("churn", 64), 4.96368194);
    (("churn", 128), 83.0552831) ]

(* One E-scale cell, run to completion with its measurements. Pure by
   construction — the formatted table row, the JSON object and any
   expectation drift come back as data — so cells can run on worker
   domains and the main domain prints them in canonical order. *)
type scale_cell = {
  c_row : string;
  c_json : J.t;
  c_fails : string list;
  c_wall : float;  (** scenario wall time, for the speedup denominator *)
}

let scale_run ~name ~n scenario =
  let minor0 = Gc.minor_words () in
  let (m, group), wall = time_of (fun () -> scenario ~n ()) in
  let minor_words = Gc.minor_words () -. minor0 in
  let (violations, checker_s) = time_of (fun () -> Group.check group) in
  let engine = Group.engine group in
  let trace = Group.trace group in
  let events_fired = Gmp_sim.Engine.fired_events engine in
  let messages_sent = total_sent (Group.stats group) in
  let trace_events = Trace.length trace in
  let words_per_event = minor_words /. float_of_int (max 1 events_fired) in
  let ns_per_event = wall /. float_of_int (max 1 events_fired) *. 1e9 in
  let row =
    Fmt.str "%-14s %-6d %9.2fs %10d %8.0f %10d %10d %9d %9.0f %10.4fs %s" name
      n wall events_fired ns_per_event
      (Gmp_sim.Engine.peak_queue_length engine)
      messages_sent trace_events words_per_event checker_s
      (if violations = [] then "OK"
       else Fmt.str "%d VIOLATIONS" (List.length violations))
  in
  ignore m;
  let fails =
    Expectations.check ~name ~n ~events_fired ~messages_sent ~trace_events
      ~words_per_event
  in
  let baseline_fields =
    match List.assoc_opt (name, n) pr1_wall with
    | None -> []
    | Some pr1 ->
      [ ("pr1_wall_s", J.float pr1);
        ("speedup_vs_pr1", J.float (pr1 /. wall)) ]
  in
  let json =
    J.obj
      ([ ("name", J.string name);
         ("n", J.int n);
         ("wall_s", J.float wall);
         ("events_fired", J.int events_fired);
         ("ns_per_event", J.float ns_per_event);
         ("peak_heap_entries", J.int (Gmp_sim.Engine.peak_queue_length engine));
         ("final_heap_entries", J.int (Gmp_sim.Engine.queue_length engine));
         ("live_timers", J.int (Gmp_sim.Engine.pending_events engine));
         ("messages_sent", J.int messages_sent);
         ("trace_events", J.int trace_events);
         ("minor_words", J.float minor_words);
         ("minor_words_per_event", J.float words_per_event);
         ("checker_s", J.float checker_s);
         ("violations", J.int (List.length violations));
         (* deterministic snapshot (counters, detection-latency histograms):
            same seed, same cell -> byte-identical text, any jobs value *)
         ("metrics", Gmp_obs.Obs.Snapshot.to_json (Group.metrics group)) ]
       @ baseline_fields)
  in
  { c_row = row; c_json = json; c_fails = fails; c_wall = wall }

(* Farm the cells to [jobs] worker domains pulling from a shared index.
   The pool runs even at jobs = 1 so every jobs value takes the same code
   path: each cell starts from a fresh per-domain vector-clock registry,
   and all its measurements (Gc.minor_words is per-domain on OCaml 5) are
   functions of the cell alone — the emitted JSON is bit-identical for any
   job count, which CI checks with bench/json_diff.exe. The global stats
   category registry is frozen across the pool: module-init time interned
   every category, so workers only do (safe) concurrent lookups. *)
let run_cells ~jobs cells =
  let items = Array.of_list cells in
  let results = Array.make (Array.length items) None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length items then begin
        Gmp_causality.Vector_clock.fresh_registry ();
        let name, n, scenario = items.(i) in
        results.(i) <- Some (scale_run ~name ~n scenario);
        loop ()
      end
    in
    loop ()
  in
  Gmp_platform.Stats.freeze ();
  let t0 = Unix.gettimeofday () in
  let domains =
    List.init (min jobs (max 1 (Array.length items))) (fun _ ->
        Domain.spawn worker)
  in
  List.iter Domain.join domains;
  let pool_wall = Unix.gettimeofday () -. t0 in
  Gmp_platform.Stats.thaw ();
  let cells =
    Array.to_list results
    |> List.map (function
         | Some c -> c
         | None -> failwith "bench: scale cell never ran")
  in
  (cells, pool_wall)

(* The acceptance measurement: the same full safety check on the n=32 churn
   trace, indexed vs the seed's list scans (Checker.Reference). *)
let checker_speedup () =
  let _, group = Scenario.churn ~n:32 () in
  let trace = Group.trace group in
  let initial = Group.initial group in
  let reps = 10 in
  (* Sanity: all three agree (no violations on a correct run) before timing. *)
  let idx_violations = Checker.check_safety trace ~initial in
  let seed_violations = Seed_checker.check_safety trace ~initial in
  if List.length idx_violations <> List.length seed_violations then
    pr "WARNING: indexed and seed checkers disagree (%d vs %d violations)@."
      (List.length idx_violations)
      (List.length seed_violations);
  let indexed_s =
    time_reps ~reps (fun () -> Checker.check_safety trace ~initial)
  in
  let seed_s =
    time_reps ~reps (fun () -> Seed_checker.check_safety trace ~initial)
  in
  let reference_s =
    time_reps ~reps (fun () -> Checker.Reference.check_safety trace ~initial)
  in
  let speedup = seed_s /. indexed_s in
  pr "checker on n=32 churn trace (%d events): indexed %.4fms, seed \
      list-scan %.4fms -> x%.1f  %s@."
    (Trace.length trace) (indexed_s *. 1e3) (seed_s *. 1e3) speedup
    (pass (speedup >= 5.0));
  pr "  (new property logic on the naive scans alone: %.4fms -> x%.1f)@."
    (reference_s *. 1e3)
    (reference_s /. indexed_s);
  J.obj
    [ ("trace_events", J.int (Trace.length trace));
      ("indexed_s", J.float indexed_s);
      ("seed_s", J.float seed_s);
      ("reference_s", J.float reference_s);
      ("speedup_vs_seed", J.float speedup);
      ("speedup_vs_reference", J.float (reference_s /. indexed_s)) ]

(* ---------------------------------------------------------------- *)
(* E-explore: schedule-explorer throughput (snapshots vs replay)     *)
(* ---------------------------------------------------------------- *)

module E = Gmp_explore.Explore

(* Wall time of the pre-snapshot seed explorer on the same sweep (assurance
   model, depth 12, budget 25000), measured on the reference machine — the
   speedup_vs_seed denominator, same convention as [pr1_wall]. *)
let explore_seed_wall_s = 0.734

(* The PR 7 acceptance measurement: bounded exploration of the assurance
   model at the CI setting, checkpoint/restore snapshots against the
   rebuild-and-replay oracle, sequential and partitioned. Everything except
   wall-clock is deterministic, and the two engines must agree on all of it
   — executions, distinct interleavings, every counter, the (absent)
   counterexample — so any disagreement comes back as a drift failure and
   fails the bench, mirroring CI's oracle-equivalence gate. *)
let explore_throughput () =
  section
    "E-explore: schedule-explorer throughput (snapshots vs replay oracle; \
     assurance, depth 12, budget 25000)";
  let depth = 12 and budget = 25_000 in
  let model = E.assurance () in
  pr "%-16s %9s %12s %14s %12s %10s@." "engine" "wall" "exec/s"
    "distinct/s" "executions" "distinct";
  let cell ~jobs ~snapshots =
    let label =
      Fmt.str "%s/%s"
        (match jobs with None -> "seq" | Some j -> Fmt.str "jobs%d" j)
        (if snapshots then "snapshots" else "replay")
    in
    let o, wall =
      time_of (fun () -> E.explore ?jobs ~snapshots model ~depth ~budget)
    in
    let s = o.E.stats in
    pr "%-16s %8.3fs %12.0f %14.0f %12d %10d@." label wall
      (float_of_int s.E.executions /. wall)
      (float_of_int s.E.distinct /. wall)
      s.E.executions s.E.distinct;
    let json =
      J.obj
        [ ("label", J.string label);
          ("snapshots", J.bool snapshots);
          ("executions", J.int s.E.executions);
          ("distinct", J.int s.E.distinct);
          ("frames", J.int s.E.frames);
          ("state_pruned", J.int s.E.state_pruned);
          ("sleep_pruned", J.int s.E.sleep_pruned);
          ("violation_found", J.bool (o.E.counterexample <> None));
          ("wall_s", J.float wall);
          ("executions_per_s", J.float (float_of_int s.E.executions /. wall));
          ("distinct_per_s", J.float (float_of_int s.E.distinct /. wall)) ]
    in
    (label, o, wall, json)
  in
  (* Snapshots on/off at each jobs value: the sequential engine (the CI
     assurance gate) plus the partitioned engine at jobs 1 and jobs 4.
     Bound one by one so the rows run (and print) in table order. *)
  let c1 = cell ~jobs:None ~snapshots:true in
  let c2 = cell ~jobs:None ~snapshots:false in
  let c3 = cell ~jobs:(Some 1) ~snapshots:true in
  let c4 = cell ~jobs:(Some 1) ~snapshots:false in
  let c5 = cell ~jobs:(Some 4) ~snapshots:true in
  let c6 = cell ~jobs:(Some 4) ~snapshots:false in
  let cells = [ c1; c2; c3; c4; c5; c6 ] in
  let outcome label = List.find (fun (l, _, _, _) -> String.equal l label) cells in
  let wall_of label = let _, _, w, _ = outcome label in w in
  let result_of label = let _, o, _, _ = outcome label in o in
  (* Engine-equivalence drift checks (byte-identical outcomes). *)
  let fails = ref [] in
  let must_agree a b =
    let agree = result_of a = result_of b in
    pr "outcome %s == %s: %s@." a b (pass agree);
    if not agree then
      fails :=
        Fmt.str "explorer outcome drift: %s and %s disagree (assurance, \
                 depth %d, budget %d)" a b depth budget
        :: !fails
  in
  must_agree "seq/snapshots" "seq/replay";
  must_agree "jobs1/snapshots" "jobs1/replay";
  must_agree "jobs4/snapshots" "jobs4/replay";
  must_agree "jobs1/snapshots" "jobs4/snapshots";
  let speedup_vs_replay = wall_of "seq/replay" /. wall_of "seq/snapshots" in
  let speedup_vs_seed = explore_seed_wall_s /. wall_of "seq/snapshots" in
  pr "snapshots vs in-process replay oracle: x%.2f; vs pre-snapshot seed \
      explorer (%.3fs on the reference machine): x%.2f@."
    speedup_vs_replay explore_seed_wall_s speedup_vs_seed;
  let json =
    J.obj
      [ ("model", J.string "assurance");
        ("depth", J.int depth);
        ("budget", J.int budget);
        ("cells", J.list (List.map (fun (_, _, _, j) -> j) cells));
        ("seed_wall_s", J.float explore_seed_wall_s);
        ("speedup_vs_replay", J.float speedup_vs_replay);
        ("speedup_vs_seed", J.float speedup_vs_seed) ]
  in
  (json, List.rev !fails)

let scale ~quick ~jobs () =
  section
    (if quick then "E-scale (quick): simulator throughput"
     else "E-scale: simulator throughput (indexed traces, compacted timers)");
  (* Churn cost grows as n^2 x horizon (the horizon itself scales with the
     crash count), so n=256 churn is minutes of wall-clock; the single-crash
     workload carries the n=256 point instead. *)
  let single_sizes = if quick then [ 64 ] else [ 64; 128; 256 ] in
  let churn_sizes = if quick then [ 32 ] else [ 32; 64; 128 ] in
  let cells =
    List.map
      (fun n ->
        ("single-crash", n, fun ~n () -> Scenario.scale_single_crash ~n ()))
      single_sizes
    @ List.map
        (fun n -> ("churn", n, fun ~n () -> Scenario.churn ~n ()))
        churn_sizes
  in
  pr "%d cells on %d worker domain(s)@." (List.length cells) jobs;
  pr "%-14s %-6s %10s %10s %8s %10s %10s %9s %9s %11s@." "scenario" "n" "wall"
    "events" "ns/ev" "peak-heap" "messages" "trace" "words/ev" "checker";
  let runs, pool_wall = run_cells ~jobs cells in
  List.iter (fun c -> pr "%s@." c.c_row) runs;
  let cells_wall = List.fold_left (fun acc c -> acc +. c.c_wall) 0.0 runs in
  let parallel_speedup = cells_wall /. Float.max pool_wall 1e-9 in
  pr "cells: %.2fs of scenario work in %.2fs wall (speedup x%.2f on %d \
      domain(s))@."
    cells_wall pool_wall parallel_speedup jobs;
  let speedup = checker_speedup () in
  let explorer_json, explorer_fails = explore_throughput () in
  let doc =
    J.obj
      [ ("quick", J.bool quick);
        ("jobs", J.int jobs);
        ("scenarios", J.list (List.map (fun c -> c.c_json) runs));
        ("explorer_throughput", explorer_json);
        ("cells_wall_s", J.float cells_wall);
        ("pool_wall_s", J.float pool_wall);
        ("parallel_speedup", J.float parallel_speedup);
        ("pr1_baseline_wall_s",
         J.list
           (List.map
              (fun ((name, n), wall) ->
                J.obj
                  [ ("name", J.string name);
                    ("n", J.int n);
                    ("wall_s", J.float wall) ])
              pr1_wall));
        ("checker_speedup_n32_churn", speedup) ]
  in
  (* A quick run writes its own, uncommitted file, so it can never overwrite
     the committed full-run trajectory. *)
  let file = if quick then "BENCH_scale.quick.json" else "BENCH_scale.json" in
  let oc = open_out file in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  pr "wrote %s@." file;
  List.concat_map (fun c -> c.c_fails) runs @ explorer_fails

(* ---------------------------------------------------------------- *)
(* Bechamel micro-benchmarks                                         *)
(* ---------------------------------------------------------------- *)

let bechamel_section () =
  section "Bechamel micro-benchmarks (wall-clock per whole scenario run)";
  let open Bechamel in
  let scenario_test name f =
    Test.make ~name (Staged.stage (fun () -> ignore (f ())))
  in
  let tests =
    Test.make_grouped ~name:"scenarios"
      [ scenario_test "E1-exclusion-n8" (fun () -> Scenario.single_crash ~n:8 ());
        scenario_test "E2-compressed-n8" (fun () ->
            Scenario.compressed_pair ~n:8 ());
        scenario_test "E3-reconfig-n8" (fun () -> Scenario.mgr_crash ~n:8 ());
        scenario_test "E5-sequence-n8" (fun () ->
            Scenario.sequence_all ~n:8 ());
        scenario_test "E6-symmetric-n8" (fun () ->
            Scenario.symmetric_single_crash ~n:8 ());
        scenario_test "view-ops" (fun () ->
            let v = View.initial (Pid.group 64) in
            let v = View.remove v (Pid.make 13) in
            View.rank v (Pid.make 63)) ]
  in
  let benchmark () =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
    Benchmark.all cfg instances tests
  in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock (benchmark ())
  in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let est =
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> est
          | _ -> Float.nan
        in
        (name, est) :: acc)
      results []
  in
  List.iter
    (fun (name, est) ->
      if Float.is_nan est then pr "%-36s (no estimate)@." name
      else pr "%-36s %12.0f ns/run@." name est)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* --jobs N: worker-domain count for the E-scale pool. 0 autodetects the
   core count; negatives are rejected; the default of 1 still goes through
   the pool so the emitted JSON is identical for every value. *)
let parse_jobs () =
  let argv = Sys.argv in
  let jobs = ref 1 in
  let set raw =
    match int_of_string_opt raw with
    | None ->
      Fmt.epr "bench: invalid --jobs value %S@." raw;
      exit 2
    | Some j when j < 0 ->
      Fmt.epr "bench: --jobs must be >= 0, got %d@." j;
      exit 2
    | Some 0 -> jobs := Domain.recommended_domain_count ()
    | Some j -> jobs := j
  in
  Array.iteri
    (fun i arg ->
      if String.equal arg "--jobs" then
        if i + 1 < Array.length argv then set argv.(i + 1)
        else begin
          Fmt.epr "bench: --jobs needs a value@.";
          exit 2
        end
      else if String.length arg > 7 && String.equal (String.sub arg 0 7) "--jobs="
      then set (String.sub arg 7 (String.length arg - 7)))
    argv;
  !jobs

let () =
  let quick = Array.exists (String.equal "--quick") Sys.argv in
  let jobs = parse_jobs () in
  pr "Reproduction harness: Ricciardi & Birman, 'Using Process Groups to Implement@.";
  pr "Failure Detection in Asynchronous Environments' (PODC 1991 / TR 91-1188)@.";
  let failures =
    if quick then begin
      (* CI smoke mode: the cheap paper sections plus the scale section at its
         smallest sizes, so perf regressions and envelope breaks fail fast. *)
      table1 ();
      e1 ();
      e3 ();
      c1 ();
      c2 ();
      a1 ();
      scale ~quick:true ~jobs ()
    end
    else begin
      table1 ();
      e1 ();
      e2 ();
      e3 ();
      e4 ();
      e5 ();
      e6 ();
      c1 ();
      c2 ();
      f3 ();
      f4 ();
      f7 ();
      a1 ();
      ab1 ();
      ab2 ();
      ab3 ();
      ab4 ();
      let failures = scale ~quick:false ~jobs () in
      bechamel_section ();
      failures
    end
  in
  pr "@.done.@.";
  match failures with
  | [] -> ()
  | failures ->
    pr "@.%d deterministic-count drift(s) vs bench/expectations.ml:@."
      (List.length failures);
    List.iter (fun msg -> pr "  %s@." msg) failures;
    exit 1
