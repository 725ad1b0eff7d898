(* Edge cases of the member state machine: the "no messages from future
   views" buffering rule, application traffic, welcome deduplication, the
   §8 reuse optimization, and partition behaviour. *)

open Gmp_base
open Gmp_core
module Group = Gmp_runtime.Group

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let p i = Pid.make i

type Wire.app += Ping of int

let no_violations group =
  check int "no violations" 0 (List.length (Group.check group))

(* ---- the view-buffering rule for application messages ---- *)

let test_app_future_view_buffered () =
  let group = Group.create ~seed:70 ~n:4 () in
  let sender = Group.member group (p 1) in
  let receiver = Group.member group (p 2) in
  let delivered = ref [] in
  Member.set_app_handler receiver (fun ~src:_ msg ->
      match msg with
      | Ping i -> delivered := (i, Member.version receiver) :: !delivered
      | _ -> ());
  (* Crash p3; p1 will install v1 and immediately send an app message
     stamped with version 1. Delay p2's knowledge by suspending nothing -
     instead, send from p1 the moment IT installs v1: p2 may still be at v0
     when the message arrives (independent channels), in which case the
     buffering rule must hold it until p2 installs v1. *)
  Member.set_on_view_change sender (fun m ->
      if Member.version m = 1 then Member.send_app m ~dst:(p 2) (Ping 42));
  Group.crash_at group 10.0 (p 3);
  Group.run ~until:200.0 group;
  no_violations group;
  (match !delivered with
   | [ (42, ver_at_delivery) ] ->
     check bool "delivered at version >= 1" true (ver_at_delivery >= 1)
   | _ -> Alcotest.fail "expected exactly one delivery");
  ()

let test_app_same_view_immediate () =
  let group = Group.create ~seed:71 ~n:3 () in
  let receiver = Group.member group (p 2) in
  let delivered = ref 0 in
  Member.set_app_handler receiver (fun ~src:_ -> function
    | Ping _ -> incr delivered
    | _ -> ());
  Group.at group 5.0 (fun () ->
      Member.send_app (Group.member group (p 0)) ~dst:(p 2) (Ping 1));
  Group.run ~until:50.0 group;
  check int "delivered" 1 !delivered

let test_broadcast_app_skips_suspects () =
  let group = Group.create ~seed:72 ~n:4 () in
  let counts = Array.make 4 0 in
  List.iteri
    (fun i m ->
      Member.set_app_handler m (fun ~src:_ -> function
        | Ping _ -> counts.(i) <- counts.(i) + 1
        | _ -> ()))
    (Group.members group);
  Group.suspect_at group 5.0 ~observer:(p 0) ~target:(p 3);
  Group.at group 6.0 (fun () ->
      Member.broadcast_app (Group.member group (p 0)) (Ping 7));
  Group.run ~until:20.0 group;
  check int "p1 got it" 1 counts.(1);
  check int "p2 got it" 1 counts.(2);
  check int "suspected p3 skipped" 0 counts.(3)

(* ---- welcome handling ---- *)

let test_duplicate_welcome_ignored () =
  (* A joiner admitted once keeps its state even if a stale Welcome shows
     up later (it can't: FIFO - but the guard must exist; simulate via the
     join retrying against two contacts, producing one admission). *)
  let group = Group.create ~seed:73 ~n:4 () in
  Group.join_at group 10.0 (p 10) ~contact:(p 1);
  Group.run ~until:300.0 group;
  no_violations group;
  let joiner = Group.member group (p 10) in
  check bool "joined exactly once" true (Member.joined joiner);
  let installs = Trace.installs_of (Group.trace group) (p 10) in
  let first_versions = List.map fst installs in
  check bool "versions strictly increasing" true
    (List.sort_uniq Int.compare first_versions = first_versions)

(* ---- §8 reuse optimization ---- *)

let test_reuse_cascade_converges () =
  let config = Config.optimized in
  let delay = Gmp_net.Delay.uniform ~lo:1.0 ~hi:3.0 in
  let group = Group.create ~config ~delay ~seed:74 ~n:8 () in
  Group.crash_at group 10.0 (p 0);
  Group.crash_at group 24.0 (p 1);
  Group.crash_at group 38.0 (p 2);
  Group.run ~until:1000.0 group;
  no_violations group;
  match Group.agreed_view group with
  | Some (_, members) ->
    check int "five survivors" 5 (List.length members)
  | None -> Alcotest.fail "no agreement"

let test_reuse_churn_safety () =
  (* The optimization must preserve GMP under the same randomized churn the
     default configuration passes. *)
  for seed = 1 to 40 do
    let rng = Gmp_sim.Rng.create seed in
    let n = 4 + Gmp_sim.Rng.int rng 5 in
    let group = Group.create ~config:Config.optimized ~seed ~n () in
    let crashes = Gmp_sim.Rng.int rng ((n / 2) + 1) in
    for i = 0 to crashes - 1 do
      Group.crash_at group
        (10.0 +. (float_of_int i *. Gmp_sim.Rng.float rng 8.0))
        (p i)
    done;
    Group.run ~until:800.0 group;
    if Group.check group <> [] then
      Alcotest.failf "seed %d violated GMP under reconf_reuse" seed
  done

let test_reuse_saves_messages_small () =
  (* At n = 8 with a three-initiator cascade the pre-sent replies land
     within the grace period and save interrogations. *)
  let run config =
    let delay = Gmp_net.Delay.uniform ~lo:1.0 ~hi:3.0 in
    let config = { config with Config.heartbeat_timeout = 8.0 } in
    let group = Group.create ~config ~delay ~seed:1 ~n:8 () in
    Group.crash_at group 10.0 (p 0);
    Group.crash_at group 24.0 (p 1);
    Group.crash_at group 38.0 (p 2);
    Group.run ~until:1000.0 group;
    check int "clean" 0 (List.length (Group.check group));
    Group.protocol_messages group
  in
  let base = run Config.default in
  let reuse = run Config.optimized in
  check bool
    (Printf.sprintf "reuse (%d) <= base (%d)" reuse base)
    true (reuse <= base)

(* ---- partitions ---- *)

let test_minority_partition_excluded_majority_survives () =
  let group = Group.create ~seed:75 ~n:5 () in
  (* p3, p4 split away; the majority side excludes them. The minority (2 of
     5) cannot assemble a majority, so it can never install a competing
     view: safety holds even before any healing. *)
  Group.partition_at group 10.0 [ [ p 3; p 4 ] ];
  Group.run ~until:300.0 group;
  check int "safety" 0
    (List.length
       (Checker.check_safety (Group.trace group) ~initial:(Group.initial group)));
  let majority_view = Member.view (Group.member group (p 0)) in
  check bool "majority side excluded the minority" true
    ((not (View.mem majority_view (p 3))) && not (View.mem majority_view (p 4)));
  (* The minority never moved past version 0. *)
  List.iter
    (fun i ->
      let m = Group.member group (p i) in
      if Member.operational m then
        check int "minority blocked at v0" 0 (Member.version m))
    [ 3; 4 ]

let test_partition_heal_keeps_safety () =
  let group = Group.create ~seed:76 ~n:5 () in
  Group.partition_at group 10.0 [ [ p 3; p 4 ] ];
  Group.heal_at group 80.0;
  Group.run ~until:400.0 group;
  (* After healing, the excluded side's processes are still perceived
     faulty (S1 is permanent); they cannot rejoin under the same
     incarnation and safety must hold throughout. *)
  check int "safety across heal" 0
    (List.length
       (Checker.check_safety (Group.trace group) ~initial:(Group.initial group)))

(* ---- majority gates count only live, current-view voters ---- *)

let test_stale_oks_cannot_fake_majority () =
  (* n=5, scripted detector, constant delay. p3 is dead from the start but
     nobody knows. p0 suspects p4 and invites; p1 and p2 send their OKs
     (arriving t=12). Then p0 comes to suspect p1 and p2 — their recorded
     OKs are now votes from condemned processes — and finally p3, which
     closes the outstanding set and forces the decision. Live votes: p0
     alone, 1 < majority(5) = 3, so p0 must QUIT rather than commit a
     minority view on the strength of stale OKs (which is exactly what the
     unfiltered count "|oks| + 1 = 3 >= 3" used to do). *)
  let group =
    Group.create ~config:Config.scripted_only
      ~delay:(Gmp_net.Delay.constant 1.0) ~seed:3 ~n:5 ()
  in
  Group.crash_at group 5.0 (p 3);
  Group.suspect_at group 10.0 ~observer:(p 0) ~target:(p 4);
  Group.suspect_at group 13.0 ~observer:(p 0) ~target:(p 1);
  Group.suspect_at group 13.0 ~observer:(p 0) ~target:(p 2);
  Group.suspect_at group 13.5 ~observer:(p 0) ~target:(p 3);
  Group.run ~until:60.0 group;
  let m0 = Group.member group (p 0) in
  check bool "p0 quit instead of committing" true (Member.has_quit m0);
  check int "p0 never installed a view" 0 (Member.version m0);
  check int "no safety violations" 0
    (List.length
       (Checker.check_safety (Group.trace group)
          ~initial:(Group.initial group)))

(* ---- join retry round-robin ---- *)

let test_join_retry_starts_at_first_contact () =
  (* p1 is crashed (and already excluded, so the group can still admit).
     The joiner's contact list is [p1; p2]: the initial request and the
     FIRST retry must both go to p1 — the old cursor arithmetic skipped
     contacts.(0) on the first wrap — and the second retry reaches p2,
     which forwards and gets the join committed. *)
  let group =
    Group.create ~config:Config.scripted_only
      ~delay:(Gmp_net.Delay.constant 1.0) ~seed:4 ~n:3 ()
  in
  let requests = ref [] in
  Gmp_net.Network.set_monitor (Group.network group) (fun r ->
      if
        String.equal
          (Gmp_platform.Stats.name r.Gmp_net.Network.record_category)
          "join-request"
      then requests := Pid.id r.Gmp_net.Network.record_dst :: !requests);
  Group.crash_at group 1.0 (p 1);
  Group.suspect_at group 2.0 ~observer:(p 0) ~target:(p 1);
  Group.join_at group 10.0 (p 9) ~contact:(p 1) ~contacts:[ p 2 ];
  Group.run ~until:80.0 group;
  check (Alcotest.list int) "initial, retry to contacts.(0), then wrap"
    [ 1; 1; 2 ] (List.rev !requests);
  check bool "joined via the second contact" true
    (Member.joined (Group.member group (p 9)))

let test_join_with_only_self_contact_rejected () =
  (* A contacts list that filters down to nothing (only the joiner itself)
     must be rejected up front instead of dividing by zero at retry time. *)
  let group = Group.create ~config:Config.scripted_only ~seed:5 ~n:3 () in
  Group.join_at group 5.0 (p 9) ~contact:(p 9) ~contacts:[ p 9 ];
  check bool "rejected" true
    (try
       Group.run ~until:20.0 group;
       false
     with Invalid_argument _ -> true)

let suite =
  [ Alcotest.test_case "app: future-view message buffered" `Quick
      test_app_future_view_buffered;
    Alcotest.test_case "member: stale OKs cannot fake a majority" `Quick
      test_stale_oks_cannot_fake_majority;
    Alcotest.test_case "member: join retry starts at contacts.(0)" `Quick
      test_join_retry_starts_at_first_contact;
    Alcotest.test_case "member: self-only contacts rejected" `Quick
      test_join_with_only_self_contact_rejected;
    Alcotest.test_case "app: same-view immediate" `Quick
      test_app_same_view_immediate;
    Alcotest.test_case "app: broadcast skips suspects" `Quick
      test_broadcast_app_skips_suspects;
    Alcotest.test_case "welcome: no duplicate adoption" `Quick
      test_duplicate_welcome_ignored;
    Alcotest.test_case "reuse: cascade converges" `Quick
      test_reuse_cascade_converges;
    Alcotest.test_case "reuse: churn safety" `Slow test_reuse_churn_safety;
    Alcotest.test_case "reuse: saves messages at n=8" `Quick
      test_reuse_saves_messages_small;
    Alcotest.test_case "partition: minority blocked, majority survives" `Quick
      test_minority_partition_excluded_majority_survives;
    Alcotest.test_case "partition: safety across heal" `Quick
      test_partition_heal_keeps_safety ]
