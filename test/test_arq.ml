(* Tests for the lossy datagram layer and the alternating-bit channel that
   implements the paper's reliable-FIFO assumption on top of it. *)

open Gmp_base
open Gmp_net

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let p0 = Pid.make 0
let p1 = Pid.make 1
let p2 = Pid.make 2

let setup ?(loss = 0.3) ?(duplicate = 0.1) ?(seed = 7) () =
  let engine = Gmp_sim.Engine.create () in
  let rng = Gmp_sim.Rng.create seed in
  (* Bounded delay spread and a generous rto: the alternating bit is sound
     (no datagram survives across two bit flips). *)
  let delay = Delay.uniform ~lo:0.5 ~hi:1.5 in
  let arq = Arq.create ~loss ~duplicate ~rto:5.0 ~engine ~rng ~delay () in
  (engine, arq)

(* ---- Lossy ---- *)

let test_lossy_drops () =
  let engine = Gmp_sim.Engine.create () in
  let rng = Gmp_sim.Rng.create 3 in
  let lossy =
    Lossy.of_model ~engine ~rng
      (Netem.make ~loss:0.5 ~delay:(Delay.constant 1.0) ())
  in
  let received = ref 0 in
  Lossy.set_handler lossy (fun ~dst:_ ~src:_ () -> incr received);
  for _ = 1 to 1000 do
    Lossy.send lossy ~src:p0 ~dst:p1 ()
  done;
  Gmp_sim.Engine.run engine;
  check bool "roughly half lost" true (!received > 350 && !received < 650);
  check int "accounting adds up" 1000
    (!received + Lossy.datagrams_lost lossy)

let test_lossy_duplicates () =
  let engine = Gmp_sim.Engine.create () in
  let rng = Gmp_sim.Rng.create 4 in
  let lossy =
    Lossy.of_model ~engine ~rng
      (Netem.make ~duplicate:1.0 ~delay:(Delay.constant 1.0) ())
  in
  let received = ref 0 in
  Lossy.set_handler lossy (fun ~dst:_ ~src:_ () -> incr received);
  for _ = 1 to 100 do
    Lossy.send lossy ~src:p0 ~dst:p1 ()
  done;
  Gmp_sim.Engine.run engine;
  check int "everything doubled" 200 !received

let test_lossy_reorders () =
  let engine = Gmp_sim.Engine.create () in
  let rng = Gmp_sim.Rng.create 5 in
  let lossy =
    Lossy.of_model ~fifo:false ~engine ~rng
      (Netem.make ~delay:(Delay.uniform ~lo:0.1 ~hi:10.0) ())
  in
  let received = ref [] in
  Lossy.set_handler lossy (fun ~dst:_ ~src:_ i -> received := i :: !received);
  for i = 1 to 50 do
    Lossy.send lossy ~src:p0 ~dst:p1 i
  done;
  Gmp_sim.Engine.run engine;
  check bool "no ordering with ~fifo:false" true
    (List.rev !received <> List.init 50 (fun i -> i + 1))

let test_lossy_fifo_by_default () =
  let engine = Gmp_sim.Engine.create () in
  let rng = Gmp_sim.Rng.create 6 in
  let lossy =
    Lossy.of_model ~engine ~rng
      (Netem.make ~delay:(Delay.uniform ~lo:0.1 ~hi:10.0) ())
  in
  let received = ref [] in
  Lossy.set_handler lossy (fun ~dst:_ ~src:_ i -> received := i :: !received);
  for i = 1 to 50 do
    Lossy.send lossy ~src:p0 ~dst:p1 i
  done;
  Gmp_sim.Engine.run engine;
  check (Alcotest.list int) "in order on a physical link"
    (List.init 50 (fun i -> i + 1))
    (List.rev !received)

(* ---- Arq ---- *)

let test_arq_reliable_fifo_under_loss () =
  let engine, arq = setup ~loss:0.4 ~duplicate:0.2 () in
  let received = ref [] in
  Arq.set_handler arq (fun ~dst:_ ~src:_ i -> received := i :: !received);
  let n = 100 in
  for i = 1 to n do
    Arq.send arq ~src:p0 ~dst:p1 i
  done;
  Gmp_sim.Engine.run engine;
  check (Alcotest.list int) "exactly once, in order"
    (List.init n (fun i -> i + 1))
    (List.rev !received);
  check bool "loss actually happened" true (Arq.datagrams_lost arq > 0);
  check bool "retransmissions happened" true (Arq.retransmissions arq > 0)

let test_arq_no_loss_no_retransmit () =
  let engine, arq = setup ~loss:0.0 ~duplicate:0.0 () in
  let received = ref 0 in
  Arq.set_handler arq (fun ~dst:_ ~src:_ _ -> incr received);
  for i = 1 to 20 do
    Arq.send arq ~src:p0 ~dst:p1 i
  done;
  Gmp_sim.Engine.run engine;
  check int "all delivered" 20 !received;
  check int "no retransmissions on a clean link" 0 (Arq.retransmissions arq)

let test_arq_channels_independent () =
  let engine, arq = setup ~loss:0.3 () in
  let to1 = ref [] and to2 = ref [] and back = ref [] in
  Arq.set_handler arq (fun ~dst ~src:_ i ->
      if Pid.equal dst p1 then to1 := i :: !to1
      else if Pid.equal dst p2 then to2 := i :: !to2
      else back := i :: !back);
  for i = 1 to 30 do
    Arq.send arq ~src:p0 ~dst:p1 i;
    Arq.send arq ~src:p0 ~dst:p2 (100 + i);
    Arq.send arq ~src:p1 ~dst:p0 (200 + i)
  done;
  Gmp_sim.Engine.run engine;
  check (Alcotest.list int) "p0->p1 ordered" (List.init 30 (fun i -> i + 1))
    (List.rev !to1);
  check (Alcotest.list int) "p0->p2 ordered" (List.init 30 (fun i -> 101 + i))
    (List.rev !to2);
  check (Alcotest.list int) "p1->p0 ordered" (List.init 30 (fun i -> 201 + i))
    (List.rev !back)

let test_arq_heavy_loss_eventually_delivers () =
  let engine, arq = setup ~loss:0.8 ~duplicate:0.0 ~seed:11 () in
  let received = ref [] in
  Arq.set_handler arq (fun ~dst:_ ~src:_ i -> received := i :: !received);
  for i = 1 to 10 do
    Arq.send arq ~src:p0 ~dst:p1 i
  done;
  Gmp_sim.Engine.run engine;
  check (Alcotest.list int) "survives 80% loss" (List.init 10 (fun i -> i + 1))
    (List.rev !received)

let test_arq_unsound_over_reordering_links () =
  (* The classic negative result: the 1-bit protocol is NOT correct over
     arbitrarily reordering links - a stale frame or ack can cross two bit
     flips. Sweep seeds until an anomaly (wrong order, loss or duplicate at
     the reliable layer) shows up. *)
  let anomaly = ref false in
  let seed = ref 0 in
  while (not !anomaly) && !seed < 500 do
    incr seed;
    let engine = Gmp_sim.Engine.create () in
    let rng = Gmp_sim.Rng.create !seed in
    let delay = Delay.uniform ~lo:0.5 ~hi:1.5 in
    let arq =
      Arq.create ~fifo:false ~loss:0.2 ~duplicate:0.2 ~rto:5.0 ~engine ~rng
        ~delay ()
    in
    let received = ref [] in
    Arq.set_handler arq (fun ~dst:_ ~src:_ i -> received := i :: !received);
    for i = 1 to 40 do
      Arq.send arq ~src:p0 ~dst:p1 i
    done;
    Gmp_sim.Engine.run ~max_steps:1_000_000 engine;
    if List.rev !received <> List.init 40 (fun i -> i + 1) then anomaly := true
  done;
  check bool "ABP breaks over reordering links (within 500 seeds)" true !anomaly

let prop_arq_exactly_once_in_order =
  QCheck.Test.make ~name:"arq: exactly-once in-order for any loss/seed"
    ~count:60
    QCheck.(pair (int_range 1 1_000_000) (int_range 0 70))
    (fun (seed, loss_pct) ->
      let loss = float_of_int loss_pct /. 100.0 in
      let engine, arq = setup ~loss ~duplicate:0.15 ~seed () in
      let received = ref [] in
      Arq.set_handler arq (fun ~dst:_ ~src:_ i -> received := i :: !received);
      let n = 30 in
      for i = 1 to n do
        Arq.send arq ~src:p0 ~dst:p1 i
      done;
      Gmp_sim.Engine.run engine;
      List.rev !received = List.init n (fun i -> i + 1))

let test_arq_teardown_drains_event_queue () =
  (* A retransmit timer toward a destination that will never ack (crashed,
     or total loss) used to run forever and keep the simulation alive.
     Tearing the channel down must cancel it so the engine drains. *)
  let engine, arq = setup ~loss:0.99 ~duplicate:0.0 () in
  Arq.set_handler arq (fun ~dst:_ ~src:_ () -> ());
  Arq.send arq ~src:p0 ~dst:p1 ();
  Arq.send arq ~src:p2 ~dst:p1 ();
  Gmp_sim.Engine.run ~until:50.0 engine;
  check bool "retransmitting into the void" true
    (Arq.retransmissions arq > 0 && Gmp_sim.Engine.pending_events engine > 0);
  Arq.teardown_to arq p1;
  Gmp_sim.Engine.run ~until:200.0 engine;
  check int "event queue drains after teardown" 0
    (Gmp_sim.Engine.pending_events engine)

let test_arq_teardown_single_channel () =
  (* Teardown is per-channel and drops the backlog: the first p0->p1
     datagram is already in flight (its late ack must be ignored), the
     queued second one must never go out, and p2's channel is untouched. *)
  let engine, arq = setup ~loss:0.0 ~duplicate:0.0 () in
  let got = ref 0 in
  Arq.set_handler arq (fun ~dst:_ ~src:_ () -> incr got);
  Arq.send arq ~src:p0 ~dst:p1 ();
  Arq.send arq ~src:p0 ~dst:p1 ();
  Arq.teardown arq ~src:p0 ~dst:p1;
  Arq.send arq ~src:p2 ~dst:p1 ();
  Gmp_sim.Engine.run ~until:100.0 engine;
  check int "backlogged message dropped" 2 !got;
  check int "nothing pending" 0 (Gmp_sim.Engine.pending_events engine)

let suite =
  [ Alcotest.test_case "lossy: drops" `Quick test_lossy_drops;
    Alcotest.test_case "arq: teardown drains the event queue" `Quick
      test_arq_teardown_drains_event_queue;
    Alcotest.test_case "arq: teardown is per-channel" `Quick
      test_arq_teardown_single_channel;
    Alcotest.test_case "lossy: duplicates" `Quick test_lossy_duplicates;
    Alcotest.test_case "lossy: reorders with ~fifo:false" `Quick
      test_lossy_reorders;
    Alcotest.test_case "lossy: FIFO by default" `Quick test_lossy_fifo_by_default;
    Alcotest.test_case "arq: unsound over reordering links" `Quick
      test_arq_unsound_over_reordering_links;
    Alcotest.test_case "arq: reliable FIFO under loss+dup" `Quick
      test_arq_reliable_fifo_under_loss;
    Alcotest.test_case "arq: clean link, no retransmit" `Quick
      test_arq_no_loss_no_retransmit;
    Alcotest.test_case "arq: channels independent" `Quick
      test_arq_channels_independent;
    Alcotest.test_case "arq: 80% loss" `Quick
      test_arq_heavy_loss_eventually_delivers;
    QCheck_alcotest.to_alcotest prop_arq_exactly_once_in_order ]
