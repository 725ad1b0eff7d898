(* Unit tests for the process runtime: spawning, messaging, timers, crash
   semantics, broadcast indivisibility. *)

open Gmp_base
module Runtime = Gmp_runtime.Runtime

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let p i = Pid.make i

let test_spawn_and_send () =
  let rt = Runtime.create ~seed:1 () in
  let a = Runtime.spawn rt (p 0) in
  let b = Runtime.spawn rt (p 1) in
  let inbox = ref [] in
  Runtime.set_receiver b (fun ~src msg -> inbox := (src, msg) :: !inbox);
  Runtime.send a ~dst:(p 1) ~category:(Gmp_platform.Stats.intern "t") "hello";
  Runtime.run rt;
  (match !inbox with
   | [ (src, "hello") ] -> check bool "src" true (Pid.equal src (p 0))
   | _ -> Alcotest.fail "expected one message");
  check bool "duplicate spawn rejected" true
    (try ignore (Runtime.spawn rt (p 0)); false with Invalid_argument _ -> true)

let test_crash_semantics () =
  let rt = Runtime.create ~seed:2 () in
  let a = Runtime.spawn rt (p 0) in
  let b = Runtime.spawn rt (p 1) in
  let received = ref 0 in
  Runtime.set_receiver b (fun ~src:_ _ -> incr received);
  (* In-flight message vanishes when the destination crashes. *)
  Runtime.send a ~dst:(p 1) ~category:(Gmp_platform.Stats.intern "t") ();
  Runtime.crash b;
  Runtime.run rt;
  check int "nothing delivered" 0 !received;
  check bool "not alive" false (Runtime.alive b);
  (* A crashed process cannot send. *)
  Runtime.crash a;
  Runtime.send a ~dst:(p 1) ~category:(Gmp_platform.Stats.intern "t") ();
  Runtime.run rt;
  check int "no sends from the dead" 0
    (Gmp_platform.Stats.sent (Runtime.stats rt) ~category:"t" - 1)

let test_timers () =
  let rt = Runtime.create ~seed:3 () in
  let a = Runtime.spawn rt (p 0) in
  let fired = ref 0 in
  let handle = Runtime.set_timer a ~delay:5.0 (fun () -> incr fired) in
  ignore (Runtime.set_timer a ~delay:6.0 (fun () -> incr fired) : Runtime.timer);
  Runtime.cancel_timer a handle;
  Runtime.run rt;
  check int "one cancelled, one fired" 1 !fired

let test_timer_dies_with_node () =
  let rt = Runtime.create ~seed:4 () in
  let a = Runtime.spawn rt (p 0) in
  let fired = ref 0 in
  ignore (Runtime.set_timer a ~delay:5.0 (fun () -> incr fired) : Runtime.timer);
  Runtime.crash a;
  Runtime.run rt;
  check int "timer suppressed after crash" 0 !fired

let test_every_stops_on_crash () =
  let rt = Runtime.create ~seed:5 () in
  let a = Runtime.spawn rt (p 0) in
  let ticks = ref 0 in
  Runtime.every a ~interval:1.0 (fun () ->
      incr ticks;
      if !ticks = 3 then Runtime.crash a);
  Runtime.run ~until:100.0 rt;
  check int "stopped at the crash" 3 !ticks

let test_broadcast_excludes_self () =
  let rt = Runtime.create ~seed:6 () in
  let a = Runtime.spawn rt (p 0) in
  let received = ref [] in
  List.iter
    (fun i ->
      let node = Runtime.spawn rt (p i) in
      Runtime.set_receiver node (fun ~src:_ () -> received := i :: !received))
    [ 1; 2; 3 ];
  Runtime.set_receiver a (fun ~src:_ () -> received := 0 :: !received);
  Runtime.broadcast a ~dsts:[ p 0; p 1; p 2; p 3 ]
    ~category:(Gmp_platform.Stats.intern "t") ();
  Runtime.run rt;
  check (Alcotest.list int) "everyone but self" [ 1; 2; 3 ]
    (List.sort Int.compare !received)

let test_local_event_advances_clock () =
  let rt = Runtime.create ~seed:7 () in
  let a = Runtime.spawn rt (p 0) in
  let i1, vc1 = Runtime.local_event a in
  let i2, vc2 = Runtime.local_event a in
  check int "indices advance" (i1 + 1) i2;
  check bool "clock advances" true (Gmp_causality.Vector_clock.lt vc1 vc2)

let test_now_tracks_engine () =
  let rt = Runtime.create ~seed:8 () in
  let a = Runtime.spawn rt (p 0) in
  let seen = ref 0.0 in
  ignore
    (Runtime.set_timer a ~delay:7.5 (fun () -> seen := Runtime.node_now a)
      : Runtime.timer);
  Runtime.run rt;
  check (Alcotest.float 1e-9) "node_now" 7.5 !seen

let suite =
  [ Alcotest.test_case "spawn and send" `Quick test_spawn_and_send;
    Alcotest.test_case "crash semantics" `Quick test_crash_semantics;
    Alcotest.test_case "timers and cancellation" `Quick test_timers;
    Alcotest.test_case "timer dies with node" `Quick test_timer_dies_with_node;
    Alcotest.test_case "every stops on crash" `Quick test_every_stops_on_crash;
    Alcotest.test_case "broadcast excludes self" `Quick
      test_broadcast_excludes_self;
    Alcotest.test_case "local events advance the clock" `Quick
      test_local_event_advances_clock;
    Alcotest.test_case "node_now tracks the engine" `Quick test_now_tracks_engine ]
