(* Unit costs replayed through the layers' public functions, at the sizes a
   run actually reached: the event queue at its peak heap size, a vector
   clock merge at the group's width, the codec and framing on the run's
   frame mix, the live timer heap at a node's pending count. Multiplied by
   the run's counts they say how much of the run each layer explains. *)

open Gmp_base
module VC = Gmp_causality.Vector_clock

let per_op ~ops f =
  let (), wall, _ = Measure.timed f in
  wall /. float_of_int ops *. 1e9

(* One add plus one pop at a steady heap of [size] entries, per operation. *)
let event_queue_ns ~size =
  let q = Gmp_sim.Event_queue.create () in
  let rng = Random.State.make [| size |] in
  for _ = 1 to max 1 size do
    Gmp_sim.Event_queue.add q ~time:(Random.State.float rng 100.0) ()
  done;
  let rounds = 400_000 in
  per_op ~ops:(2 * rounds) (fun () ->
      for _ = 1 to rounds do
        match Gmp_sim.Event_queue.pop q with
        | Some (t, ()) ->
          Gmp_sim.Event_queue.add q ~time:(t +. Random.State.float rng 100.0) ()
        | None -> ()
      done)

(* [Mutable.merge_tick] of a received clock into a node's own, at width n:
   what every delivery pays in [Runtime.dispatch]. *)
let merge_tick_ns ~width =
  let pids = Pid.group width in
  VC.reserve pids;
  let remote = VC.of_list (List.mapi (fun i p -> (p, 1000 + i)) pids) in
  let own = VC.Mutable.create () in
  let self = List.hd pids in
  let rounds = 200_000 in
  per_op ~ops:rounds (fun () ->
      for _ = 1 to rounds do
        VC.Mutable.merge_tick own remote self
      done)

(* The live frame mix: heartbeat data frames stamped with a clock of the
   cluster's width, and cumulative acks, in the run's proportion. Protocol
   frames are a fraction of a percent of the traffic and are left out. *)
let frame_mix ~width ~data ~acks =
  let pids = Pid.group width in
  let vc = VC.of_list (List.mapi (fun i p -> (p, 5000 + (37 * i))) pids) in
  let total = max 1 (data + acks) in
  let k = 64 in
  let n_data = max 1 (k * data / total) in
  List.init k (fun i ->
      let src = List.nth pids (i mod width) in
      if i < n_data then
        Gmp_live.Codec.Data
          { src; chan_seq = 10_000 + i; vc; msg = Gmp_core.Wire.Heartbeat }
      else Gmp_live.Codec.Ack { src; ack_next = 10_000 + i })

type codec = {
  encode_ns : float;
  decode_ns : float;
  words_per_frame : float;  (** minor words per encode plus decode *)
  framing_ns : float;  (** per frame, fed as one TCP read per 1 KiB *)
}

let codec frames =
  let frames = Array.of_list frames in
  let k = Array.length frames in
  let rounds = 20_000 in
  let encoded = Array.map Gmp_live.Codec.encode_frame frames in
  let encode_ns =
    per_op ~ops:(rounds * k) (fun () ->
        for _ = 1 to rounds do
          Array.iter (fun f -> ignore (Gmp_live.Codec.encode_frame f : string)) frames
        done)
  in
  let decode_ns =
    per_op ~ops:(rounds * k) (fun () ->
        for _ = 1 to rounds do
          Array.iter (fun s -> ignore (Gmp_live.Codec.decode_frame s)) encoded
        done)
  in
  let w0 = Measure.minor_words () in
  Array.iter
    (fun f -> ignore (Gmp_live.Codec.decode_frame (Gmp_live.Codec.encode_frame f)))
    frames;
  let words_per_frame = (Measure.minor_words () -. w0) /. float_of_int k in
  let stream = String.concat "" (Array.to_list encoded) in
  let chunks =
    let len = String.length stream in
    List.init ((len + 1023) / 1024) (fun i ->
        String.sub stream (i * 1024) (min 1024 (len - (i * 1024))))
  in
  let framing_rounds = 5_000 in
  let framing_ns =
    per_op ~ops:(framing_rounds * k) (fun () ->
        for _ = 1 to framing_rounds do
          let fr = Gmp_live.Framing.create () in
          List.iter (fun c -> ignore (Gmp_live.Framing.feed_string fr c)) chunks
        done)
  in
  { encode_ns; decode_ns; words_per_frame; framing_ns }

(* Schedule plus fire of one timer on a heap holding [pending] others. *)
let timers_ns ~pending =
  let t = Gmp_live.Timers.create () in
  for i = 1 to pending do
    ignore (Gmp_live.Timers.schedule t ~at:(1e9 +. float_of_int i) ignore
            : Gmp_live.Timers.entry)
  done;
  let rounds = 200_000 in
  per_op ~ops:(2 * rounds) (fun () ->
      for i = 1 to rounds do
        let now = float_of_int i in
        ignore (Gmp_live.Timers.schedule t ~at:now ignore : Gmp_live.Timers.entry);
        ignore (Gmp_live.Timers.fire_due t ~now : int)
      done)
