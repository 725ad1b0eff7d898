(* Tests for the go-back-N channel core: driven directly through an
   in-memory adversary, and through its two shells against the
   implementations they replaced (the alternating-bit Arq and the binary
   timer heap, kept as oracles in the test tree). *)

open Gmp_base
open Gmp_net
module Obs = Gmp_obs.Obs

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ---- the core under an in-memory adversary ---- *)

(* Take the [k]th element out of a list. *)
let take k l =
  let rec go i acc = function
    | [] -> invalid_arg "take"
    | x :: rest when i = k -> (x, List.rev_append acc rest)
    | x :: rest -> go (i + 1) (x :: acc) rest
  in
  go 0 [] l

let shuffle rng l =
  List.map (fun x -> (Random.State.bits rng, x)) l
  |> List.sort compare |> List.map snd

(* One sender and one receiver joined by two wires (data, acks). The
   adversary steps [adversary_steps] times choosing among: send the next
   message, deliver / duplicate / drop a data frame or an ack, and fire
   the timeout. [fifo] wires only ever hand over their oldest frame.
   Then the links turn fair until everything is delivered. Returns the
   delivered payloads in order and whether the sender ended idle. *)
let run_adversary ~gbn ~fifo ~n ~adversary_steps rng =
  let data = ref [] and acks = ref [] in
  (* newest first; a FIFO wire hands over its last element *)
  let s = Gbn.sender gbn ~emit:(fun f -> data := f :: !data) in
  let r = Gbn.receiver gbn in
  let delivered = ref [] and sent = ref 0 and now = ref 0.0 in
  let pick wire =
    let len = List.length !wire in
    if fifo then len - 1 else Random.State.int rng len
  in
  let deliver_data ~keep k =
    let (seq, payload), rest = take k !data in
    if not keep then data := rest;
    if Gbn.accept r seq then delivered := payload :: !delivered;
    acks := Gbn.ack r :: !acks
  in
  let deliver_ack ~keep k =
    let a, rest = take k !acks in
    if not keep then acks := rest;
    Gbn.on_ack s ~now:!now a
  in
  let send () =
    incr sent;
    let payload = !sent in
    Gbn.send s ~now:!now (fun seq -> (seq, payload))
  in
  for _ = 1 to adversary_steps do
    now := !now +. Random.State.float rng 1.0;
    match Random.State.int rng 8 with
    | 0 | 1 -> if !sent < n then send ()
    | 2 | 3 ->
      if !data <> [] then
        deliver_data ~keep:(Random.State.int rng 4 = 0) (pick data)
    | 4 -> if !data <> [] then data := snd (take (pick data) !data)
    | 5 ->
      if !acks <> [] then
        deliver_ack ~keep:(Random.State.int rng 4 = 0) (pick acks)
    | 6 -> if !acks <> [] then acks := snd (take (pick acks) !acks)
    | _ -> Gbn.on_timeout s ~now:!now
  done;
  while !sent < n do
    send ()
  done;
  let rounds = ref 0 in
  while (not (Gbn.idle s)) && !rounds < 1000 do
    incr rounds;
    now := !now +. 1.0;
    Gbn.on_timeout s ~now:!now;
    let order wire = if fifo then List.rev !wire else shuffle rng !wire in
    let ds = order data and as_ = order acks in
    data := [];
    acks := [];
    List.iter
      (fun (seq, payload) ->
        if Gbn.accept r seq then delivered := payload :: !delivered;
        acks := Gbn.ack r :: !acks)
      ds;
    List.iter (fun a -> Gbn.on_ack s ~now:!now a) (as_ @ List.rev !acks);
    acks := []
  done;
  (List.rev !delivered, Gbn.idle s)

let prop_unbounded_reordering =
  QCheck.Test.make
    ~name:"gbn: unbounded window exactly-once FIFO under reordering"
    ~count:300
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 40))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      let gbn = Gbn.create ~window:max_int ~rto:1.0 ~rto_max:16.0 () in
      let delivered, idle =
        run_adversary ~gbn ~fifo:false ~n ~adversary_steps:200 rng
      in
      idle && delivered = List.init n (fun i -> i + 1))

let prop_one_bit_fifo =
  QCheck.Test.make
    ~name:"gbn: window 1 mod 2 exactly-once FIFO under FIFO loss+dup"
    ~count:300
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 40))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      let gbn = Gbn.create ~modulus:2 ~window:1 ~rto:1.0 ~rto_max:1.0 () in
      let delivered, idle =
        run_adversary ~gbn ~fifo:true ~n ~adversary_steps:200 rng
      in
      idle && delivered = List.init n (fun i -> i + 1))

(* The adversary must actually exercise what the properties claim. *)
let test_adversary_is_hostile () =
  let dups = ref 0 and oow = ref 0 and resent = ref 0 in
  for seed = 1 to 30 do
    let gbn = Gbn.create ~window:max_int ~rto:1.0 ~rto_max:16.0 () in
    ignore
      (run_adversary ~gbn ~fifo:false ~n:20 ~adversary_steps:200
         (Random.State.make [| seed |]));
    let c = Gbn.counters gbn in
    dups := !dups + List.assoc "arq.dups_suppressed" c;
    oow := !oow + List.assoc "arq.out_of_window_drops" c;
    resent := !resent + List.assoc "arq.retransmits" c
  done;
  check bool "duplicates suppressed" true (!dups > 0);
  check bool "reordered frames dropped" true (!oow > 0);
  check bool "frames retransmitted" true (!resent > 0)

let prop_backoff =
  QCheck.Test.make
    ~name:"gbn: deadline doubles per silent round, resets on ack"
    ~count:200
    QCheck.(triple (int_range 1 8) (int_range 0 6) (int_range 0 12))
    (fun (rto_i, shift, rounds) ->
      let rto = float_of_int rto_i /. 4.0 in
      let rto_max = rto *. float_of_int ((1 lsl shift) + (shift mod 2)) in
      let gbn = Gbn.create ~window:max_int ~rto ~rto_max () in
      let s = Gbn.sender gbn ~emit:ignore in
      let ok = ref (Gbn.deadline s = infinity) in
      Gbn.send s ~now:0.0 (fun seq -> seq);
      ok := !ok && Gbn.deadline s = rto;
      let cur = ref rto in
      for _ = 1 to rounds do
        let now = Gbn.deadline s in
        Gbn.on_timeout s ~now;
        cur := Float.min (!cur *. 2.0) rto_max;
        ok := !ok && Gbn.deadline s = now +. !cur
      done;
      (* A second frame joins the window: the running timer is kept. *)
      let d = Gbn.deadline s in
      Gbn.send s ~now:(d -. 0.1) (fun seq -> seq);
      ok := !ok && Gbn.deadline s = d;
      (* Ack progress on the first frame re-arms from now at [rto]; a
         stale ack changes nothing; acking the rest disarms. *)
      Gbn.on_ack s ~now:(d -. 0.05) 1;
      ok := !ok && Gbn.deadline s = d -. 0.05 +. rto;
      Gbn.on_ack s ~now:d 1;
      ok := !ok && Gbn.deadline s = d -. 0.05 +. rto;
      Gbn.on_ack s ~now:d 2;
      !ok && Gbn.deadline s = infinity && Gbn.idle s)

let rtt_samples registry =
  match Obs.Snapshot.find (Obs.snapshot registry) "arq.rtt" with
  | Some (Obs.Snapshot.Histogram d) -> (Obs.Snapshot.count d, d.sum)
  | _ -> Alcotest.fail "arq.rtt missing"

(* Sends, timeouts and cumulative acks at random; a model tracks which
   frames were ever retransmitted. Only the others may be sampled. *)
let prop_karn =
  QCheck.Test.make
    ~name:"gbn: arq.rtt samples only never-retransmitted frames"
    ~count:300 (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let registry = Obs.create () in
      let gbn =
        Gbn.create ~registry ~window:max_int ~rto:1.0 ~rto_max:8.0 ()
      in
      let s = Gbn.sender gbn ~emit:ignore in
      (* model: in-flight (sent_at, clean), oldest first *)
      let in_flight = Queue.create () in
      let next = ref 0 and acked = ref 0 and now = ref 0.0 in
      let samples = ref 0 and sum = ref 0.0 in
      for _ = 1 to 60 do
        now := !now +. Random.State.float rng 1.0;
        match Random.State.int rng 3 with
        | 0 ->
          Gbn.send s ~now:!now (fun seq -> seq);
          incr next;
          Queue.add (!now, ref true) in_flight
        | 1 ->
          Gbn.on_timeout s ~now:!now;
          Queue.iter (fun (_, clean) -> clean := false) in_flight
        | _ ->
          let a = !acked + Random.State.int rng (!next - !acked + 1) in
          Gbn.on_ack s ~now:!now a;
          for _ = !acked + 1 to a do
            let sent_at, clean = Queue.pop in_flight in
            if !clean then begin
              incr samples;
              sum := !sum +. (!now -. sent_at)
            end
          done;
          acked := a
      done;
      let count, total = rtt_samples registry in
      count = !samples && Float.abs (total -. !sum) < 1e-9)

let test_karn_unit () =
  let registry = Obs.create () in
  let gbn = Gbn.create ~registry ~window:max_int ~rto:1.0 ~rto_max:8.0 () in
  let s = Gbn.sender gbn ~emit:ignore in
  Gbn.send s ~now:0.0 (fun seq -> seq);
  Gbn.send s ~now:0.0 (fun seq -> seq);
  Gbn.on_timeout s ~now:1.0;
  Gbn.send s ~now:1.5 (fun seq -> seq);
  Gbn.on_ack s ~now:2.0 3;
  let count, sum = rtt_samples registry in
  check int "only the clean frame sampled" 1 count;
  check (Alcotest.float 1e-9) "its round-trip" 0.5 sum;
  check int "two frames resent" 2 (Gbn.retransmits gbn)

let test_create_rejects () =
  let rejects f =
    match f () with
    | (_ : Gbn.t) -> false
    | exception Invalid_argument _ -> true
  in
  check bool "rto <= 0" true
    (rejects (fun () -> Gbn.create ~window:1 ~rto:0.0 ~rto_max:1.0 ()));
  check bool "rto_max < rto" true
    (rejects (fun () -> Gbn.create ~window:1 ~rto:2.0 ~rto_max:1.0 ()));
  check bool "window 0" true
    (rejects (fun () -> Gbn.create ~window:0 ~rto:1.0 ~rto_max:1.0 ()));
  check bool "window fills the modulus" true
    (rejects (fun () ->
         Gbn.create ~modulus:2 ~window:2 ~rto:1.0 ~rto_max:1.0 ()))

(* ---- the simulator shell against the alternating-bit oracle ---- *)

module type ARQ = sig
  type 'm t

  val set_handler : 'm t -> (dst:Pid.t -> src:Pid.t -> 'm -> unit) -> unit
  val send : 'm t -> src:Pid.t -> dst:Pid.t -> 'm -> unit
  val teardown : 'm t -> src:Pid.t -> dst:Pid.t -> unit
  val teardown_to : 'm t -> Pid.t -> unit
  val retransmissions : 'm t -> int
  val datagrams_sent : 'm t -> int
  val datagrams_lost : 'm t -> int
end

type plan_op =
  | Send of int * int
  | Teardown of int * int
  | Teardown_to of int

type observation = {
  delivered : (int * int * int) list; (* dst, src, payload *)
  sent : int;
  lost : int;
  retransmissions : int;
  fired : int;
  final_now : float;
  rtt : (int * float) option;
  livelock : bool;
}

module Drive (A : ARQ) = struct
  let run ~engine ~registry (arq : int A.t) plan =
    let delivered = ref [] in
    A.set_handler arq (fun ~dst ~src i ->
        delivered := (Pid.id dst, Pid.id src, i) :: !delivered);
    List.iteri
      (fun i (time, op) ->
        ignore
          (Gmp_sim.Engine.schedule_at engine ~time (fun () ->
               match op with
               | Send (src, dst) ->
                 A.send arq ~src:(Pid.make src) ~dst:(Pid.make dst) i
               | Teardown (src, dst) ->
                 A.teardown arq ~src:(Pid.make src) ~dst:(Pid.make dst)
               | Teardown_to dst -> A.teardown_to arq (Pid.make dst))
            : Gmp_sim.Engine.handle))
      plan;
    let livelock =
      match Gmp_sim.Engine.run ~max_steps:200_000 engine with
      | () -> false
      | exception Failure _ -> true
    in
    let rtt =
      match Obs.Snapshot.find (Obs.snapshot registry) "arq.rtt" with
      | Some (Obs.Snapshot.Histogram d) -> Some (Obs.Snapshot.count d, d.sum)
      | _ -> None
    in
    { delivered = List.rev !delivered;
      sent = A.datagrams_sent arq;
      lost = A.datagrams_lost arq;
      retransmissions = A.retransmissions arq;
      fired = Gmp_sim.Engine.fired_events engine;
      final_now = Gmp_sim.Engine.now engine;
      rtt;
      livelock }
end

module Drive_new = Drive (Arq)
module Drive_oracle = Drive (Arq_oracle)

let random_plan rng =
  let pair () =
    let src = Random.State.int rng 3 in
    (src, (src + 1 + Random.State.int rng 2) mod 3)
  in
  List.init
    (1 + Random.State.int rng 60)
    (fun _ ->
      let time = Random.State.float rng 40.0 in
      match Random.State.int rng 10 with
      | 0 -> (time, (let s, d = pair () in Teardown (s, d)))
      | 1 -> (time, Teardown_to (Random.State.int rng 3))
      | _ -> (time, (let s, d = pair () in Send (s, d))))

let prop_arq_matches_oracle =
  QCheck.Test.make ~name:"arq: Gbn shell matches the alternating-bit oracle"
    ~count:300 (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let loss = Random.State.float rng 0.7 in
      let duplicate = Random.State.float rng 0.3 in
      let fifo = Random.State.int rng 4 > 0 in
      let lo = 0.1 +. Random.State.float rng 1.0 in
      let delay = Delay.uniform ~lo ~hi:(lo +. Random.State.float rng 3.0) in
      let rto = 2.0 +. Random.State.float rng 6.0 in
      let plan = random_plan rng in
      let run drive create =
        let engine = Gmp_sim.Engine.create () in
        let registry = Obs.create () in
        let rng = Gmp_sim.Rng.create seed in
        drive ~engine ~registry (create ~engine ~rng ~registry) plan
      in
      let fresh =
        run Drive_new.run (fun ~engine ~rng ~registry ->
            Arq.create ~loss ~duplicate ~rto ~fifo ~registry ~engine ~rng
              ~delay ())
      in
      let oracle =
        run Drive_oracle.run (fun ~engine ~rng ~registry ->
            Arq_oracle.create ~loss ~duplicate ~rto ~fifo ~registry ~engine ~rng
              ~delay ())
      in
      fresh = oracle)

(* ---- the live timers against the heap they replaced ---- *)

module type TIMERS = sig
  type t
  type entry

  val create : unit -> t
  val schedule : t -> at:float -> (unit -> unit) -> entry
  val cancel : entry -> unit
  val next_deadline : t -> float option
  val fire_due : t -> now:float -> int
  val pending : t -> int
end

type timer_op =
  | Schedule of int * timer_action
  | Cancel of int
  | Fire of int
  | Peek

and timer_action =
  | Plain
  | Rearm of int (* schedule another entry at this deadline *)
  | Cancel_other of int (* cancel an earlier entry *)

type timer_event =
  | Fired of int
  | Fired_count of int
  | Peeked of float option * int

module Run_timers (T : TIMERS) = struct
  let run ops =
    let t = T.create () in
    let log = ref [] in
    let entries = ref [||] in
    let note ev = log := ev :: !log in
    let cancel_nth k =
      let n = Array.length !entries in
      if n > 0 then T.cancel !entries.(k mod n)
    in
    let rec schedule at action =
      let id = Array.length !entries in
      let e =
        T.schedule t ~at:(float_of_int at) (fun () ->
            note (Fired id);
            match action with
            | Plain -> ()
            | Rearm at' -> schedule at' Plain
            | Cancel_other k -> cancel_nth k)
      in
      entries := Array.append !entries [| e |]
    in
    List.iter
      (function
        | Schedule (at, action) -> schedule at action
        | Cancel k -> cancel_nth k
        | Fire now -> note (Fired_count (T.fire_due t ~now:(float_of_int now)))
        | Peek -> note (Peeked (T.next_deadline t, T.pending t)))
      ops;
    List.rev !log
end

module Timers_new = Run_timers (Gmp_live.Timers)
module Timers_old = Run_timers (Timers_oracle)

let random_timer_ops rng =
  let small () = Random.State.int rng 12 in
  List.init
    (1 + Random.State.int rng 80)
    (fun _ ->
      match Random.State.int rng 10 with
      | 0 | 1 | 2 -> Schedule (small (), Plain)
      | 3 -> Schedule (small (), Rearm (small ()))
      | 4 -> Schedule (small (), Cancel_other (small ()))
      | 5 -> Cancel (small ())
      | 6 | 7 -> Fire (small ())
      | _ -> Peek)

let prop_timers_match_oracle =
  QCheck.Test.make ~name:"timers: event queue matches the heap oracle"
    ~count:500
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let ops = random_timer_ops (Random.State.make [| seed |]) in
      Timers_new.run ops = Timers_old.run ops)

let suite =
  [ QCheck_alcotest.to_alcotest prop_unbounded_reordering;
    QCheck_alcotest.to_alcotest prop_one_bit_fifo;
    Alcotest.test_case "gbn: the adversary duplicates, reorders, times out"
      `Quick test_adversary_is_hostile;
    QCheck_alcotest.to_alcotest prop_backoff;
    QCheck_alcotest.to_alcotest prop_karn;
    Alcotest.test_case "gbn: Karn's rule on a retransmitted window" `Quick
      test_karn_unit;
    Alcotest.test_case "gbn: create rejects bad parameters" `Quick
      test_create_rejects;
    QCheck_alcotest.to_alcotest prop_arq_matches_oracle;
    QCheck_alcotest.to_alcotest prop_timers_match_oracle ]
