(* Allocation-aware micro-benchmarks for the per-message hot path.

   Reports both wall-clock (ns/op) and minor-heap allocation (words/op) for
   the operations the per-message path is built from: event-queue add/pop,
   schedule+cancel through the engine (tombstone + compaction path), a full
   Network.send plus its delivery, the vector-clock receive rule, and the
   live channel's per-frame ARQ and timer costs — plus
   the explorer's per-backtrack costs: whole-world checkpoint capture and
   restore at two group sizes.

   Run: dune exec bench/micro.exe *)

open Bechamel
open Gmp_base

let p0 = Pid.make 0
let p1 = Pid.make 1

(* queue add+pop at a steady size: one insert and one extract per run. *)
let queue_add_pop =
  let q = Gmp_sim.Event_queue.create () in
  for i = 1 to 1024 do
    Gmp_sim.Event_queue.add q ~time:(float_of_int i) ()
  done;
  let clock = ref 1024.0 in
  Test.make ~name:"queue.add+pop (size 1024)"
    (Staged.stage (fun () ->
         clock := !clock +. 1.0;
         Gmp_sim.Event_queue.add q ~time:!clock ();
         Gmp_sim.Event_queue.pop_exn q))

(* queue add alone; drained periodically so memory stays bounded. *)
let queue_add =
  let q = Gmp_sim.Event_queue.create () in
  let clock = ref 0.0 in
  Test.make ~name:"queue.add"
    (Staged.stage (fun () ->
         if Gmp_sim.Event_queue.length q > 1_000_000 then
           Gmp_sim.Event_queue.clear q;
         clock := !clock +. 1.0;
         Gmp_sim.Event_queue.add q ~time:!clock ()))

(* schedule+cancel through the engine: exercises the tombstone path and its
   compaction bound. *)
let engine_schedule_cancel =
  let e = Gmp_sim.Engine.create () in
  Test.make ~name:"engine.schedule+cancel"
    (Staged.stage (fun () ->
         let h = Gmp_sim.Engine.schedule e ~delay:1e9 ignore in
         Gmp_sim.Engine.cancel e h))

(* A full network send plus the engine step that delivers it: channel
   lookup, FIFO bookkeeping, delivery scheduling, stats. *)
let network_send =
  let engine = Gmp_sim.Engine.create () in
  let rng = Gmp_sim.Rng.create 7 in
  let delay = Gmp_net.Delay.constant 1.0 in
  let net = Gmp_net.Network.create ~engine ~rng ~delay () in
  Gmp_net.Network.set_handler net (fun ~dst:_ ~src:_ _ -> ());
  let cat = Gmp_platform.Stats.intern "bench" in
  Test.make ~name:"network.send+deliver"
    (Staged.stage (fun () ->
         Gmp_net.Network.send net ~src:p0 ~dst:p1 ~category:cat ();
         ignore (Gmp_sim.Engine.step engine : bool)))

(* The receive rule at n=128 group size: merge the sender's clock into ours
   and tick, in one pass (what Runtime.dispatch pays per delivery). *)
let vc_merge_tick =
  let module Vc = Gmp_causality.Vector_clock in
  let full =
    List.fold_left (fun acc p -> Vc.tick acc p) Vc.empty (Pid.group 128)
  in
  let sender = Vc.tick full (Pid.make 3) in
  let local = ref (Vc.tick full p1) in
  Test.make ~name:"vc.merge_tick (n=128)"
    (Staged.stage (fun () -> local := Vc.merge_tick !local sender p1))

(* The heartbeat detector at n=128, driven as Member drives it: [peers]
   returns the same memoized list on every call. A beat is one table lookup
   and an epoch compare; a tick (fired through the captured timer closure)
   prunes and checks all 127 peers. The clock never advances, so no
   suspicion fires and every tick takes the steady-state path. *)
let heartbeat_tests =
  let module Hb = Gmp_detector.Heartbeat in
  let peers = List.tl (Pid.group 128) in
  let arr = Array.of_list peers in
  let next_tick = ref ignore in
  let set_timer ~delay:_ f =
    next_tick := f;
    { Gmp_platform.Platform.cancel = ignore }
  in
  let d =
    Hb.create ~now:(fun () -> 0.0) ~set_timer ~interval:1.0 ~timeout:3.0
      ~send_beats:ignore ~peers:(fun () -> peers) ~suspect:ignore ()
  in
  Hb.start d;
  !next_tick ();
  let i = ref 0 in
  [ Test.make ~name:"heartbeat.beat_received (n=128)"
      (Staged.stage (fun () ->
           i := (!i + 1) mod 127;
           Hb.beat_received d ~from:arr.(!i)));
    Test.make ~name:"heartbeat.tick (n=128)"
      (Staged.stage (fun () -> !next_tick ())) ]

(* The reliable channel's per-frame cost at the live node's unbounded
   window: number and send one frame, then retire it with its cumulative
   ack (which takes the Karn rtt sample). The core touches no clock, timer
   or socket, so this is the protocol's share alone. *)
let gbn_send_ack =
  let module Gbn = Gmp_net.Gbn in
  let gbn =
    Gbn.create ~registry:(Gmp_obs.Obs.create ()) ~window:max_int ~rto:0.25
      ~rto_max:4.0 ()
  in
  let s = Gbn.sender gbn ~emit:ignore in
  let frame_of _ = "frame" in
  let acked = ref 0 in
  Test.make ~name:"gbn.send+ack (window max_int)"
    (Staged.stage (fun () ->
         Gbn.send s ~now:0.0 frame_of;
         incr acked;
         Gbn.on_ack s ~now:0.0 !acked))

(* One live timer scheduled and fired beside 64 pending ones: what the
   poll loop pays per retransmit re-arm or delayed netem copy. *)
let timers_schedule_fire =
  let module T = Gmp_live.Timers in
  let t = T.create () in
  for i = 1 to 64 do
    ignore (T.schedule t ~at:(1e9 +. float_of_int i) ignore : T.entry)
  done;
  let clock = ref 0.0 in
  Test.make ~name:"timers.schedule+fire_due"
    (Staged.stage (fun () ->
         clock := !clock +. 1.0;
         ignore (T.schedule t ~at:!clock ignore : T.entry);
         T.fire_due t ~now:!clock))

(* The parallel explorer's shared fingerprint store: one exhaustion-commit
   plus one prune probe per op, over a pre-populated table, keys drawn from
   the same splitmix-style mixing the explorer uses. Single-domain numbers;
   the cross-domain contention behaviour is covered by the unit tests. *)
let fp_table_ops =
  let module F = Gmp_explore.Fp_table in
  let t = F.create () in
  let mix k = (k * 0x9E3779B9) lxor (k lsr 13) in
  for i = 1 to 65_536 do
    F.note_exhausted t ~key:(mix i) ~remaining:(i land 7)
  done;
  let i = ref 0 in
  Test.make ~name:"fp_table.note+prunable (64k keys)"
    (Staged.stage (fun () ->
         incr i;
         let key = mix !i in
         F.note_exhausted t ~key ~remaining:(!i land 7);
         F.prunable t ~key ~remaining:4))

(* The explorer's snapshot layer: whole-world capture and in-place rewind
   (Group.checkpoint / Group.restore). Cost is O(world) — flat array blits
   plus copy-on-write clock publishes, no per-event work — so two sizes
   bound the range: n=3 is the exploration models' world, n=32 a mid-size
   group. Each world is run to a steady state first so the captures cover a
   populated event heap, live channels and a non-empty trace. *)
let snapshot_tests n =
  let module Group = Gmp_runtime.Group in
  let group = Group.create ~seed:11 ~n () in
  Group.run ~until:30.0 group;
  let capture =
    Test.make ~name:(Fmt.str "group.checkpoint (n=%d)" n)
      (Staged.stage (fun () -> Group.checkpoint group))
  in
  let cp = Group.checkpoint group in
  let restore =
    Test.make ~name:(Fmt.str "group.restore (n=%d)" n)
      (Staged.stage (fun () -> Group.restore group cp))
  in
  [ capture; restore ]

let tests =
  Test.make_grouped ~name:"hot-path"
    ([ queue_add_pop;
       queue_add;
       engine_schedule_cancel;
       network_send;
       vc_merge_tick;
       gbn_send_ack;
       timers_schedule_fire;
       fp_table_ops ]
     @ heartbeat_tests
     @ snapshot_tests 3 @ snapshot_tests 32)

(* bechamel's built-in minor_allocated reads [Gc.quick_stat], whose
   minor_words only advances at minor collections on OCaml 5 — allocation-
   free ops would always read 0 and allocating ops would be quantised to
   whole collections. [Gc.minor_words] reads the allocation pointer. *)
module Minor_words = struct
  type witness = unit

  let label () = "minor-words"
  let unit () = "mnw"
  let make () = ()
  let load () = ()
  let unload () = ()
  let get () = Gc.minor_words ()
end

let minor_words =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

let analyze instance raw =
  Analyze.all
    (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
    instance raw

let estimate results name =
  match Hashtbl.find_opt results name with
  | None -> Float.nan
  | Some r ->
    (match Analyze.OLS.estimates r with
     | Some [ est ] -> est
     | _ -> Float.nan)

let () =
  let instances = [ Toolkit.Instance.monotonic_clock; minor_words ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let clocks = analyze Toolkit.Instance.monotonic_clock raw in
  let words = analyze minor_words raw in
  let names =
    Hashtbl.fold (fun name _ acc -> name :: acc) clocks []
    |> List.sort String.compare
  in
  Fmt.pr "%-40s %12s %14s@." "benchmark" "ns/op" "minor words/op";
  List.iter
    (fun name ->
      Fmt.pr "%-40s %12.1f %14.2f@." name (estimate clocks name)
        (estimate words name))
    names
