(* World checkpoint/restore: the explorer's snapshot layer (Group.checkpoint
   composing engine / network / runtime / trace / member captures).

   Core property: capture at an arbitrary depth, run k more steps, restore,
   run k steps again — every observable (trace events, per-category stats,
   virtual clock, fired/pending counters, heap occupancy, protocol
   fingerprints, surviving views) must be identical, and also identical to a
   fresh world driven through the same k1 + k2 steps (restore leaves no
   residue). Exercised across a grid of seeds and checkpoint depths under an
   adversarial schedule that includes a real crash injection, a suspicion
   and a join, so restores cross crash boundaries, membership changes and
   partition-free churn. *)

open Gmp_base
module Engine = Gmp_sim.Engine
module Group = Gmp_runtime.Group
module Trace = Gmp_core.Trace
module Member = Gmp_core.Member

let build ~seed ~n =
  let group = Group.create ~config:Gmp_core.Config.default ~seed ~n () in
  Group.crash_at group 12.0 (Pid.make 0);
  Group.suspect_at group 20.0 ~observer:(Pid.make 1)
    ~target:(Pid.make (n - 1));
  Group.join_at group 30.0 (Pid.make 100) ~contact:(Pid.make 1);
  group

let steps group k =
  let engine = Group.engine group in
  for _ = 1 to k do
    ignore (Engine.step engine : bool)
  done

type observation = {
  o_events : Trace.event list;
  o_stats : (string * int * int * int) list;
  o_now : float;
  o_fired : int;
  o_pending : int;
  o_heap : int; (* physical heap occupancy: live entries + tombstones *)
  o_peak_heap : int;
  o_fp : int;
  o_views : (Pid.t * int * Pid.t list) list;
  o_crashed : bool list; (* per member, pid order *)
}

let observe group =
  let engine = Group.engine group in
  { o_events = Trace.events (Group.trace group);
    o_stats = Gmp_platform.Stats.snapshot (Group.stats group);
    o_now = Engine.now engine;
    o_fired = Engine.fired_events engine;
    o_pending = Engine.pending_events engine;
    o_heap = Engine.queue_length engine;
    o_peak_heap = Engine.peak_queue_length engine;
    o_fp = Group.fingerprint group;
    o_views = Group.surviving_views group;
    o_crashed = List.map Member.crashed (Group.members group) }

let check_obs what (a : observation) (b : observation) =
  Alcotest.(check bool)
    (what ^ ": trace events")
    true (a.o_events = b.o_events);
  Alcotest.(check bool) (what ^ ": stats") true (a.o_stats = b.o_stats);
  Alcotest.(check (float 0.0)) (what ^ ": now") a.o_now b.o_now;
  Alcotest.(check int) (what ^ ": fired") a.o_fired b.o_fired;
  Alcotest.(check int) (what ^ ": pending") a.o_pending b.o_pending;
  Alcotest.(check int) (what ^ ": heap occupancy") a.o_heap b.o_heap;
  Alcotest.(check int) (what ^ ": peak heap") a.o_peak_heap b.o_peak_heap;
  Alcotest.(check int) (what ^ ": fingerprint") a.o_fp b.o_fp;
  Alcotest.(check bool) (what ^ ": views") true (a.o_views = b.o_views);
  Alcotest.(check bool) (what ^ ": crashed flags") true
    (a.o_crashed = b.o_crashed)

(* capture at depth k1, run k2 → restore → run k2 again (twice, to prove a
   checkpoint survives multiple restores), and diff against a fresh world
   stepped k1 + k2 times. *)
let roundtrip ~seed ~n ~k1 ~k2 () =
  let group = build ~seed ~n in
  steps group k1;
  let cp = Group.checkpoint group in
  let at_mark = observe group in
  steps group k2;
  let first = observe group in
  Group.restore group cp;
  check_obs "restore rewinds to the mark" at_mark (observe group);
  steps group k2;
  check_obs "re-run after restore" first (observe group);
  Group.restore group cp;
  steps group k2;
  check_obs "second restore from the same checkpoint" first (observe group);
  let fresh = build ~seed ~n in
  steps fresh (k1 + k2);
  check_obs "fresh world, same steps" first (observe fresh)

let test_grid () =
  (* Depths chosen to land captures before, astride and after the t=12 crash
     and the t=30 join (each step fires one event; the early schedule is
     dominated by sub-t=12 heartbeat rounds). *)
  List.iter
    (fun (seed, n, k1, k2) -> roundtrip ~seed ~n ~k1 ~k2 ())
    [ (1, 4, 0, 40);
      (2, 4, 17, 60);
      (3, 5, 113, 113);
      (4, 6, 57, 200);
      (5, 4, 301, 99);
      (7, 5, 1, 500);
      (11, 6, 250, 250) ]

(* The crash-boundary case, explicitly: capture while p0 is alive, run past
   its injected crash, restore (p0 must be alive again, its timers and
   channels resurrected), then reach the crash again identically. *)
let test_restore_across_crash () =
  let seed = 42 and n = 4 in
  let group = build ~seed ~n in
  let engine = Group.engine group in
  (* Step until just before the crash injection fires. *)
  while Engine.now engine < 11.0 do
    ignore (Engine.step engine : bool)
  done;
  let p0 = Group.member group (Pid.make 0) in
  Alcotest.(check bool) "p0 alive at capture" false (Member.crashed p0);
  let cp = Group.checkpoint group in
  (* Run well past the crash. *)
  while Engine.now engine < 25.0 do
    ignore (Engine.step engine : bool)
  done;
  Alcotest.(check bool) "p0 crashed after running on" true (Member.crashed p0);
  let after = observe group in
  Group.restore group cp;
  Alcotest.(check bool) "p0 alive again after restore" false
    (Member.crashed p0);
  while Engine.now engine < 25.0 do
    ignore (Engine.step engine : bool)
  done;
  check_obs "crash replays identically" after (observe group)

let suite =
  [ Alcotest.test_case "capture/run/restore/re-run grid" `Quick test_grid;
    Alcotest.test_case "restore across a crash injection" `Quick
      test_restore_across_crash ]
