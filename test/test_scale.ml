(* Scale tests: larger groups, heavier-tailed delays, more concurrent
   churn. Slow suite. *)

open Gmp_base
open Gmp_core
module Group = Gmp_runtime.Group

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let p i = Pid.make i

let test_n32_churn () =
  let delay = Gmp_net.Delay.exponential ~mean:1.0 in
  let config =
    { Config.default with Config.heartbeat_timeout = 15.0 }
  in
  let group = Group.create ~config ~delay ~seed:123 ~n:32 () in
  (* Coordinator crash, five scattered crashes, three joins. *)
  Group.crash_at group 10.0 (p 0);
  List.iter
    (fun (t, i) -> Group.crash_at group t (p i))
    [ (40.0, 7); (55.0, 13); (70.0, 21); (85.0, 28); (100.0, 3) ];
  List.iter
    (fun (t, j, c) -> Group.join_at group t (p j) ~contact:(p c))
    [ (60.0, 100, 5); (90.0, 101, 9); (120.0, 102, 15) ];
  Group.run ~until:1200.0 group;
  check int "no violations at n=32" 0 (List.length (Group.check group));
  match Group.agreed_view group with
  | Some (_, members) ->
    (* 32 - 6 crashes + 3 joins = 29, minus up to a couple of spurious
       exclusions that heavy-tailed delays legitimately cause (perceived
       failures are the paper's premise; GMP-5 then forces them out). *)
    check bool "members in [27,29]" true
      (List.length members >= 27 && List.length members <= 29);
    List.iter
      (fun i ->
        check bool "crashed member excluded" false
          (List.exists (Pid.equal (p i)) members))
      [ 0; 7; 13; 21; 28; 3 ];
    List.iter
      (fun j ->
        check bool "joiner admitted" true (List.exists (Pid.equal (p j)) members))
      [ 100; 101; 102 ]
  | None -> Alcotest.fail "no agreement"

let test_n48_single_reconf () =
  let group = Group.create ~seed:124 ~n:48 () in
  Group.crash_at group 10.0 (p 0);
  Group.run ~until:600.0 group;
  check int "no violations at n=48" 0 (List.length (Group.check group));
  check bool "within 5n-9" true
    (Group.protocol_messages group <= (5 * 48) - 9)

let test_deep_compressed_chain () =
  (* Eleven simultaneous detections - exactly the tolerance n - mu(n) for
     n = 24: one invitation round, then a ten-link contingent chain. *)
  let group = Group.create ~seed:125 ~n:24 () in
  for i = 13 to 23 do
    Group.crash_at group (10.0 +. (0.01 *. float_of_int i)) (p i)
  done;
  Group.run ~until:800.0 group;
  check int "no violations" 0 (List.length (Group.check group));
  (match Group.agreed_view group with
   | Some (ver, members) ->
     check int "eleven changes" 11 ver;
     check int "thirteen left" 13 (List.length members)
   | None -> Alcotest.fail "no agreement");
  let stats = Group.stats group in
  check bool "chain compressed (fewer invites than commits)" true
    (Gmp_platform.Stats.sent stats ~category:"invite"
     < Gmp_platform.Stats.sent stats ~category:"commit")

let test_many_joiners () =
  let group = Group.create ~seed:126 ~n:4 () in
  for j = 0 to 9 do
    Group.join_at group
      (10.0 +. (6.0 *. float_of_int j))
      (p (100 + j))
      ~contact:(p (j mod 4))
  done;
  Group.run ~until:600.0 group;
  check int "no violations" 0 (List.length (Group.check group));
  match Group.agreed_view group with
  | Some (ver, members) ->
    check int "ten joins committed" 10 ver;
    check int "fourteen members" 14 (List.length members)
  | None -> Alcotest.fail "no agreement"

let suite =
  [ Alcotest.test_case "n=32 churn under heavy-tailed delays" `Slow
      test_n32_churn;
    Alcotest.test_case "n=48 reconfiguration" `Slow test_n48_single_reconf;
    Alcotest.test_case "deep compressed chain (11 simultaneous)" `Slow
      test_deep_compressed_chain;
    Alcotest.test_case "ten joiners" `Slow test_many_joiners ]
