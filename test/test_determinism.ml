(* Determinism and conservation regressions.

   The simulator's RNG is our own splitmix64 and the engine's tie-break is
   by insertion sequence, so the same scenario with the same seed must be
   bit-identical run to run: same trace events, same per-category stats.
   The perf work (SoA heap, interned categories, dense channel tables) must
   never perturb that, so this pins it.

   Separately, the network must conserve messages: everything sent is
   eventually delivered, dropped (crashed destination / severed direction)
   or parked behind a partition — and heal flushes parking entirely. *)

open Gmp_base
open Gmp_net
module Stats = Gmp_platform.Stats

let run_once () =
  let m, group = Gmp_workload.Scenario.scale_single_crash ~n:16 () in
  let trace = Gmp_runtime.Group.trace group in
  let stats = Gmp_runtime.Group.stats group in
  (m, Gmp_core.Trace.events trace, Stats.snapshot stats,
   Stats.total_sent stats, Stats.total_delivered stats,
   Stats.total_dropped stats)

let test_repeat_identical () =
  let m1, ev1, snap1, s1, d1, r1 = run_once () in
  let m2, ev2, snap2, s2, d2, r2 = run_once () in
  Alcotest.(check int) "violations (run 1)" 0 (List.length m1.violations);
  Alcotest.(check bool) "trace events identical" true (ev1 = ev2);
  Alcotest.(check int) "same trace length" (List.length ev1)
    (List.length ev2);
  Alcotest.(check bool) "stats snapshots identical" true (snap1 = snap2);
  Alcotest.(check int) "total sent" s1 s2;
  Alcotest.(check int) "total delivered" d1 d2;
  Alcotest.(check int) "total dropped" r1 r2;
  Alcotest.(check int) "views installed" m1.views_installed m2.views_installed

(* Conservation: drive a raw network through a partition with a crashed
   destination in the mix. Mid-partition the ledger must balance only with
   the parked messages counted in; after heal and quiescence, parking is
   empty and sent = delivered + dropped exactly. *)
let test_conservation_over_heal () =
  let engine = Gmp_sim.Engine.create () in
  let rng = Gmp_sim.Rng.create 42 in
  let net =
    Network.create ~engine ~rng ~delay:(Delay.uniform ~lo:0.1 ~hi:2.0) ()
  in
  Network.set_handler net (fun ~dst:_ ~src:_ _ -> ());
  let cat = Stats.intern "test" in
  let pids = Array.init 6 Pid.make in
  let send src dst = Network.send net ~src:pids.(src) ~dst:pids.(dst) ~category:cat () in
  let balance ~parked_expected =
    let stats = Network.stats net in
    Alcotest.(check int) "sent = delivered + dropped + parked"
      (Stats.total_sent stats)
      (Stats.total_delivered stats + Stats.total_dropped stats
      + Network.parked_count net);
    Alcotest.(check bool) "parked count sign" true
      (if parked_expected then Network.parked_count net > 0
       else Network.parked_count net = 0)
  in
  Network.crash net pids.(5);
  Network.partition net [ [ pids.(0); pids.(1) ]; [ pids.(2); pids.(3) ] ];
  for i = 0 to 4 do
    for j = 0 to 5 do
      if i <> j then send i j (* same-side, cross-side and to-crashed mix *)
    done
  done;
  (* Drain the in-flight same-side deliveries first: conservation holds at
     quiescence (a message still on the wire is in none of the buckets).
     Parked traffic stays put across the run. *)
  Gmp_sim.Engine.run engine;
  balance ~parked_expected:true;
  Network.heal net;
  Gmp_sim.Engine.run engine;
  balance ~parked_expected:false;
  let stats = Network.stats net in
  Alcotest.(check int) "after heal: sent = delivered + dropped"
    (Stats.total_sent stats)
    (Stats.total_delivered stats + Stats.total_dropped stats)

let suite =
  [ Alcotest.test_case "scale_single_crash twice: identical trace and stats"
      `Quick test_repeat_identical;
    Alcotest.test_case "network conserves messages across partition/heal"
      `Quick test_conservation_over_heal ]
