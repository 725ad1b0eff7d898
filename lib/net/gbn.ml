(* Go-back-N as a pure state machine: sequence numbers, the in-flight
   window, a numbered backlog, cumulative acks, backed-off retransmission
   and the Karn-rule samples - everything of the reliable channel except
   the clock, the timer and the wire, which belong to the shells.

   Numbers are counted without bound internally; only the wire sees them
   reduced mod [modulus] (0 = unreduced). With window 1 and modulus 2 this
   is the alternating-bit protocol: the one bit is [seq mod 2], a data
   frame is acked with the bit expected next, and a stale ack or a
   duplicate frame is the one with the other bit. *)

module Obs = Gmp_obs.Obs

type t = {
  window : int;
  modulus : int;
  rto : float;
  rto_max : float;
  mutable data_frames_sent : int;
  mutable retransmits : int;
  mutable retransmit_rounds : int;
  mutable dups_suppressed : int;
  mutable out_of_window_drops : int;
  rtt : Obs.histogram option;
  backoff : Obs.histogram option;
}

let counters t =
  [ ("arq.data_frames_sent", t.data_frames_sent);
    ("arq.retransmits", t.retransmits);
    ("arq.retransmit_rounds", t.retransmit_rounds);
    ("arq.dups_suppressed", t.dups_suppressed);
    ("arq.out_of_window_drops", t.out_of_window_drops) ]

let retransmits t = t.retransmits

let create ?registry ?(modulus = 0) ~window ~rto ~rto_max () =
  if not (rto > 0.0 && rto <= rto_max) then
    invalid_arg "Gbn.create: need 0 < rto <= rto_max";
  if window < 1 || (modulus <> 0 && modulus <= window) then
    invalid_arg "Gbn.create: need 1 <= window < modulus";
  let t =
    { window;
      modulus;
      rto;
      rto_max;
      data_frames_sent = 0;
      retransmits = 0;
      retransmit_rounds = 0;
      dups_suppressed = 0;
      out_of_window_drops = 0;
      rtt = Option.map (fun r -> Obs.histogram r "arq.rtt") registry;
      backoff =
        Option.map
          (fun r ->
            Obs.histogram ~buckets:Obs.round_buckets r "arq.backoff_rounds")
          registry }
  in
  Option.iter
    (fun r -> Obs.register_views r ~prefix:"" (fun () -> counters t))
    registry;
  t

let wire t seq = if t.modulus = 0 then seq else seq mod t.modulus

(* How far wire number [a] lies past wire number [b]. *)
let ahead t a b =
  if t.modulus = 0 then a - b else (a - b + t.modulus) mod t.modulus

let observe h v = match h with Some h -> Obs.observe h v | None -> ()

(* ---- sender ---- *)

type 'f entry = {
  seq : int;
  frame : 'f;
  mutable sent_at : float; (* first transmission *)
  mutable clean : bool; (* never retransmitted: rtt-sampleable (Karn) *)
}

type 'f sender = {
  gbn : t;
  emit : 'f -> unit;
  mutable next_seq : int;
  in_flight : 'f entry Queue.t; (* consecutive numbers, oldest first *)
  backlog : 'f entry Queue.t; (* non-empty only while the window is full *)
  mutable deadline : float;
  mutable cur_rto : float; (* in [rto, rto_max] *)
  mutable quiet_rounds : int; (* timeouts since the last ack progress *)
}

let sender gbn ~emit =
  { gbn;
    emit;
    next_seq = 0;
    in_flight = Queue.create ();
    backlog = Queue.create ();
    deadline = infinity;
    cur_rto = gbn.rto;
    quiet_rounds = 0 }

let deadline s = s.deadline
let idle s = Queue.is_empty s.in_flight

let transmit s ~now e =
  e.sent_at <- now;
  Queue.push e s.in_flight;
  s.gbn.data_frames_sent <- s.gbn.data_frames_sent + 1;
  s.emit e.frame;
  if s.deadline = infinity then s.deadline <- now +. s.cur_rto

let send s ~now frame_of =
  let seq = s.next_seq in
  s.next_seq <- seq + 1;
  let e =
    { seq; frame = frame_of (wire s.gbn seq); sent_at = now; clean = true }
  in
  if Queue.length s.in_flight < s.gbn.window then transmit s ~now e
  else Queue.push e s.backlog

let on_ack s ~now ack =
  if not (Queue.is_empty s.in_flight) then begin
    let oldest = Queue.peek s.in_flight in
    let acked =
      Int.min
        (ahead s.gbn ack (wire s.gbn oldest.seq))
        (Queue.length s.in_flight)
    in
    if acked > 0 then begin
      for _ = 1 to acked do
        let e = Queue.pop s.in_flight in
        if e.clean then observe s.gbn.rtt (now -. e.sent_at)
      done;
      (* Ack progress: the link passes traffic again, so recovery after a
         lossy spell is prompt instead of waiting out a capped timeout. *)
      s.cur_rto <- s.gbn.rto;
      if s.quiet_rounds > 0 then begin
        observe s.gbn.backoff (float_of_int s.quiet_rounds);
        s.quiet_rounds <- 0
      end;
      while
        Queue.length s.in_flight < s.gbn.window
        && not (Queue.is_empty s.backlog)
      do
        transmit s ~now (Queue.pop s.backlog)
      done;
      s.deadline <-
        (if Queue.is_empty s.in_flight then infinity else now +. s.cur_rto)
    end
  end

let on_timeout s ~now =
  if Queue.is_empty s.in_flight then s.deadline <- infinity
  else begin
    let t = s.gbn in
    t.retransmit_rounds <- t.retransmit_rounds + 1;
    s.quiet_rounds <- s.quiet_rounds + 1;
    Queue.iter
      (fun e ->
        t.retransmits <- t.retransmits + 1;
        e.clean <- false;
        s.emit e.frame)
      s.in_flight;
    (* No ack progress this round: back off (capped), so a dead or badly
       lossy link costs O(log) sends per quiet period, not one full-window
       storm every rto. *)
    s.cur_rto <- Float.min (s.cur_rto *. 2.0) t.rto_max;
    s.deadline <- now +. s.cur_rto
  end

let teardown s =
  Option.iter (fun e -> s.next_seq <- e.seq) (Queue.peek_opt s.in_flight);
  Queue.clear s.in_flight;
  Queue.clear s.backlog;
  s.deadline <- infinity;
  s.cur_rto <- s.gbn.rto;
  s.quiet_rounds <- 0

(* ---- receiver ---- *)

type receiver = { r_gbn : t; mutable expected : int }

let receiver gbn = { r_gbn = gbn; expected = 0 }
let ack r = wire r.r_gbn r.expected

let accept r seq =
  let t = r.r_gbn in
  if seq = wire t r.expected then begin
    r.expected <- r.expected + 1;
    true
  end
  else begin
    (* Up to a window behind: a copy of something already delivered (its
       ack was lost). Anything else overtook a lost frame: go-back-N keeps
       no reorder buffer, the sender's timeout resends it. *)
    let behind = ahead t (wire t r.expected) seq in
    if behind > 0 && behind <= t.window then
      t.dups_suppressed <- t.dups_suppressed + 1
    else t.out_of_window_drops <- t.out_of_window_drops + 1;
    false
  end
