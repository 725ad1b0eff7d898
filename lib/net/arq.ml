(* The paper's footnoted channel in the simulator: "a (1-bit) sequence
   number on each message and an acknowledgement protocol", one instance
   per ordered process pair, over the lossy medium.

   The protocol is Gbn's, at window 1 with sequence numbers mod 2 - the
   alternating-bit protocol - and no backoff ([rto_max = rto]). This shell
   only carries Gbn's frames over Lossy and keeps one engine timer per
   sender channel on the core's deadline. *)

open Gmp_base
module Engine = Gmp_sim.Engine

type 'm frame =
  | Data of { seq : int; payload : 'm }
  | Ack of int

type 'm channel = {
  sender : 'm frame Gbn.sender;
  mutable timer : Engine.handle option;
  mutable armed : float; (* the deadline [timer] fires at *)
}

type 'm t = {
  engine : Engine.t;
  lossy : 'm frame Lossy.t;
  gbn : Gbn.t;
  senders : (Pid.t * Pid.t, 'm channel) Hashtbl.t; (* keyed (src,dst) *)
  receivers : (Pid.t * Pid.t, Gbn.receiver) Hashtbl.t; (* keyed (src,dst) *)
  mutable handler : dst:Pid.t -> src:Pid.t -> 'm -> unit;
}

let set_handler t handler = t.handler <- handler

let retransmissions t = Gbn.retransmits t.gbn
let datagrams_sent t = Lossy.datagrams_sent t.lossy
let datagrams_lost t = Lossy.datagrams_lost t.lossy

(* Follow the core's deadline after every step that may have moved it. *)
let rec sync t c =
  let d = Gbn.deadline c.sender in
  if d <> c.armed then begin
    Option.iter (Engine.cancel t.engine) c.timer;
    c.armed <- d;
    c.timer <-
      (if d = infinity then None
       else
         Some
           (Engine.schedule_at t.engine ~time:d (fun () ->
                Gbn.on_timeout c.sender ~now:(Engine.now t.engine);
                sync t c)))
  end

let send t ~src ~dst payload =
  if Pid.equal src dst then invalid_arg "Arq.send: src = dst";
  let c =
    match Hashtbl.find_opt t.senders (src, dst) with
    | Some c -> c
    | None ->
      let c =
        { sender = Gbn.sender t.gbn ~emit:(Lossy.send t.lossy ~src ~dst);
          timer = None;
          armed = infinity }
      in
      Hashtbl.replace t.senders (src, dst) c;
      c
  in
  Gbn.send c.sender ~now:(Engine.now t.engine) (fun seq ->
      Data { seq; payload });
  sync t c

let handle_frame t ~dst ~src frame =
  match frame with
  | Data { seq; payload } ->
    let r =
      match Hashtbl.find_opt t.receivers (src, dst) with
      | Some r -> r
      | None ->
        let r = Gbn.receiver t.gbn in
        Hashtbl.replace t.receivers (src, dst) r;
        r
    in
    let fresh = Gbn.accept r seq in
    (* Always ack what arrived - a lost ack must be regenerated by the
       retransmitted data. *)
    Lossy.send t.lossy ~src:dst ~dst:src (Ack (Gbn.ack r));
    if fresh then t.handler ~dst ~src payload
  | Ack next ->
    (* The ack travels dst->src, so the sender is keyed by the reversed
       pair. *)
    (match Hashtbl.find_opt t.senders (dst, src) with
    | None -> ()
    | Some c ->
      Gbn.on_ack c.sender ~now:(Engine.now t.engine) next;
      sync t c)

(* Channel teardown, driven by suspicion or crash of the destination: stop
   the retransmit loop and drop unsent traffic. Without this the sender
   retries forever toward a peer that will never ack - the event queue
   never drains. Tearing down never creates a channel. *)
let teardown t ~src ~dst =
  match Hashtbl.find_opt t.senders (src, dst) with
  | None -> ()
  | Some c ->
    Gbn.teardown c.sender;
    sync t c

let teardown_to t dst =
  Hashtbl.iter
    (fun (src, d) _ -> if Pid.equal d dst then teardown t ~src ~dst)
    t.senders

let create ?(loss = 0.2) ?(duplicate = 0.05) ?(rto = 5.0) ?(fifo = true)
    ?registry ~engine ~rng ~delay () =
  let gbn = Gbn.create ?registry ~modulus:2 ~window:1 ~rto ~rto_max:rto () in
  let lossy =
    Lossy.of_model ~fifo ~engine ~rng (Netem.make ~loss ~duplicate ~delay ())
  in
  let t =
    { engine;
      lossy;
      gbn;
      senders = Hashtbl.create 32;
      receivers = Hashtbl.create 32;
      handler = (fun ~dst:_ ~src:_ _ -> failwith "Arq: no handler") }
  in
  Option.iter
    (fun r ->
      Gmp_obs.Obs.register_view r "arq.datagrams_sent" (fun () ->
          datagrams_sent t);
      Gmp_obs.Obs.register_view r "arq.datagrams_lost" (fun () ->
          datagrams_lost t))
    registry;
  Lossy.set_handler lossy (fun ~dst ~src frame -> handle_frame t ~dst ~src frame);
  t
