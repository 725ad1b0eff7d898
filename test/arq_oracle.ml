(* Test oracle: the simulator's original alternating-bit Arq, kept
   verbatim (but for the Lossy constructor) so the Gbn-based Arq can be
   checked against it event for event. *)

(* The paper's footnoted channel implementation: reliable FIFO over a lossy
   medium via "a (1-bit) sequence number on each message and an
   acknowledgement protocol" - i.e. the alternating-bit / stop-and-wait
   protocol, one instance per ordered process pair.

   Sender side (per channel): a FIFO backlog; at most one datagram
   outstanding, stamped with the current bit, retransmitted every [rto]
   until the matching ack arrives; then the bit flips and the next message
   goes out. Receiver side (per channel): the expected bit; a matching data
   datagram is delivered upward and the bit flips; any data datagram is
   acked with its own bit (so lost acks get regenerated).

   Delivered exactly once, in order, to the upper layer - precisely the
   channel the model assumes. *)

open Gmp_base
open Gmp_net

type 'm frame =
  | Data of { bit : bool; payload : 'm }
  | Ack of { bit : bool }

type 'm sender = {
  mutable send_bit : bool;
  backlog : 'm Queue.t;
  mutable outstanding : 'm option;
  mutable timer : Gmp_sim.Engine.handle option;
  mutable since : float; (* when the outstanding datagram first went out *)
  mutable clean : bool; (* no retransmission since [since] (Karn's rule) *)
}

type 'm receiver = { mutable expect_bit : bool }

type 'm t = {
  engine : Gmp_sim.Engine.t;
  lossy : 'm frame Lossy.t;
  rto : float;
  rto_of : (src:Pid.t -> dst:Pid.t -> float option) option;
      (* per-channel override, consulted at each (re)transmission; the
         sender's pid picks the value, so a member's Config.tuning maps
         straight onto its outgoing channels *)
  senders : (Pid.t * Pid.t, 'm sender) Hashtbl.t; (* keyed (src,dst) *)
  receivers : (Pid.t * Pid.t, 'm receiver) Hashtbl.t; (* keyed (src,dst) *)
  mutable handler : dst:Pid.t -> src:Pid.t -> 'm -> unit;
  mutable retransmissions : int;
  rtt : Gmp_obs.Obs.histogram option;
      (* ack round-trips for never-retransmitted datagrams only: a sample
         spanning a retransmission is ambiguous (Karn's rule) *)
}

let set_handler t handler = t.handler <- handler

let retransmissions t = t.retransmissions
let datagrams_sent t = Lossy.datagrams_sent t.lossy
let datagrams_lost t = Lossy.datagrams_lost t.lossy

let sender_for t key =
  match Hashtbl.find_opt t.senders key with
  | Some s -> s
  | None ->
    let s =
      { send_bit = false;
        backlog = Queue.create ();
        outstanding = None;
        timer = None;
        since = 0.0;
        clean = false }
    in
    Hashtbl.replace t.senders key s;
    s

let receiver_for t key =
  match Hashtbl.find_opt t.receivers key with
  | Some r -> r
  | None ->
    let r = { expect_bit = false } in
    Hashtbl.replace t.receivers key r;
    r

let cancel_timer t s =
  match s.timer with
  | None -> ()
  | Some h ->
    Gmp_sim.Engine.cancel t.engine h;
    s.timer <- None

let rto_for t ~src ~dst =
  match t.rto_of with
  | None -> t.rto
  | Some f -> (match f ~src ~dst with Some v -> v | None -> t.rto)

let rec transmit t ~src ~dst s =
  match s.outstanding with
  | None -> ()
  | Some payload ->
    Lossy.send t.lossy ~src ~dst (Data { bit = s.send_bit; payload });
    cancel_timer t s;
    s.timer <-
      Some
        (Gmp_sim.Engine.schedule t.engine ~delay:(rto_for t ~src ~dst)
           (fun () ->
             (* Timeout: the datagram or its ack was lost; go again. *)
             t.retransmissions <- t.retransmissions + 1;
             s.clean <- false;
             transmit t ~src ~dst s))

let pump t ~src ~dst s =
  if s.outstanding = None && not (Queue.is_empty s.backlog) then begin
    s.outstanding <- Some (Queue.pop s.backlog);
    s.since <- Gmp_sim.Engine.now t.engine;
    s.clean <- true;
    transmit t ~src ~dst s
  end

let send t ~src ~dst payload =
  if Pid.equal src dst then invalid_arg "Arq.send: src = dst";
  let s = sender_for t (src, dst) in
  Queue.add payload s.backlog;
  pump t ~src ~dst s

let handle_frame t ~dst ~src frame =
  match frame with
  | Data { bit; payload } ->
    (* Always ack what arrived - a lost ack must be regenerated by the
       retransmitted data. *)
    Lossy.send t.lossy ~src:dst ~dst:src (Ack { bit });
    let r = receiver_for t (src, dst) in
    if bit = r.expect_bit then begin
      r.expect_bit <- not r.expect_bit;
      t.handler ~dst ~src payload
    end
    (* else: duplicate of an already-delivered datagram; ack was enough *)
  | Ack { bit } ->
    (* The ack travels dst->src, so the sender state is keyed by the
       reversed pair. *)
    let s = sender_for t (dst, src) in
    if s.outstanding <> None && bit = s.send_bit then begin
      (match t.rtt with
      | Some h when s.clean ->
        Gmp_obs.Obs.observe h (Gmp_sim.Engine.now t.engine -. s.since)
      | _ -> ());
      s.outstanding <- None;
      s.send_bit <- not s.send_bit;
      cancel_timer t s;
      pump t ~src:dst ~dst:src s
    end

(* Channel teardown, driven by suspicion or crash of the destination: stop
   the retransmit loop and drop unsent traffic. Without this the
   stop-and-wait sender retries forever toward a peer that will never ack -
   the event queue never drains and virtual time grinds through useless
   timeouts. Tearing down only touches existing sender state; it never
   creates a channel. *)
let teardown t ~src ~dst =
  match Hashtbl.find_opt t.senders (src, dst) with
  | None -> ()
  | Some s ->
    cancel_timer t s;
    s.outstanding <- None;
    Queue.clear s.backlog

let teardown_to t dst =
  Hashtbl.iter
    (fun (src, d) _ -> if Pid.equal d dst then teardown t ~src ~dst)
    t.senders

let create ?(loss = 0.2) ?(duplicate = 0.05) ?(rto = 5.0) ?rto_of
    ?(fifo = true) ?registry ~engine ~rng ~delay () =
  if rto <= 0.0 then invalid_arg "Arq.create: rto must be positive";
  let lossy =
    Lossy.of_model ~fifo ~engine ~rng (Netem.make ~loss ~duplicate ~delay ())
  in
  let t =
    { engine;
      lossy;
      rto;
      rto_of;
      senders = Hashtbl.create 32;
      receivers = Hashtbl.create 32;
      handler = (fun ~dst:_ ~src:_ _ -> failwith "Arq: no handler");
      retransmissions = 0;
      rtt = Option.map (fun r -> Gmp_obs.Obs.histogram r "arq.rtt") registry }
  in
  (match registry with
  | None -> ()
  | Some r ->
    Gmp_obs.Obs.register_view r "arq.datagrams_sent" (fun () ->
        datagrams_sent t);
    Gmp_obs.Obs.register_view r "arq.datagrams_lost" (fun () ->
        datagrams_lost t);
    Gmp_obs.Obs.register_view r "arq.retransmits" (fun () -> t.retransmissions));
  Lossy.set_handler lossy (fun ~dst ~src frame -> handle_frame t ~dst ~src frame);
  t
