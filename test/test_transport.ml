(* The transport subsystem: endpoints and CLI specs (pure parsing), the
   UDP transport's wire compatibility (a node must put exactly the codec's
   frame bytes on the wire - no envelope the pre-seam runtime didn't
   have), and the TCP transport end-to-end: framed exchange over real
   streams, lazy reconnection with backoff against a peer that isn't up
   yet, and half-open detection when an established stream stops
   draining. *)

open Gmp_base
open Gmp_core
open Gmp_net
open Gmp_live

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let p ?(i = 0) id = Pid.make ~incarnation:i id

(* ---- endpoints ---- *)

let test_endpoint_parse () =
  let ok s = match Endpoint.parse s with Ok e -> e | Error m -> Alcotest.fail m in
  let err s = match Endpoint.parse s with Ok _ -> false | Error _ -> true in
  let e = ok "10.0.0.7:4000" in
  check string "host" "10.0.0.7" (Endpoint.host e);
  check int "port" 4000 (Endpoint.port e);
  check string "round-trip" "10.0.0.7:4000" (Endpoint.to_string e);
  check string "dns name accepted" "node-b.example.org"
    (Endpoint.host (ok "node-b.example.org:9"));
  check bool "missing port rejected" true (err "10.0.0.7");
  check bool "empty host rejected" true (err ":4000");
  check bool "bad port rejected" true (err "h:70000");
  check bool "non-numeric port rejected" true (err "h:http");
  check bool "hostile host charset rejected" true (err "a b:1");
  check bool "leading dot rejected" true (err ".example.com:1");
  check bool "bare port means loopback" true
    (match Endpoint.parse_or_port "4000" with
    | Ok e -> Endpoint.host e = "127.0.0.1" && Endpoint.port e = 4000
    | Error _ -> false);
  check bool "with_port keeps host" true
    (Endpoint.equal
       (Endpoint.with_port (ok "h0:1") 2)
       (ok "h0:2"))

let test_endpoint_make_validates () =
  let rejects f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  check bool "empty host" true (rejects (fun () -> Endpoint.make ~host:"" ~port:1));
  check bool "negative port" true
    (rejects (fun () -> Endpoint.make ~host:"h" ~port:(-1)));
  check bool "port 65536" true
    (rejects (fun () -> Endpoint.make ~host:"h" ~port:65536));
  check bool "port 0 allowed (ephemeral)" false
    (rejects (fun () -> Endpoint.make ~host:"h" ~port:0))

(* ---- CLI specs ---- *)

let test_spec_peers () =
  (match Spec.parse_peer "p3:4000" with
  | Ok (pid, ep) ->
    check string "pid" "p3" (Pid.to_string pid);
    check string "loopback default" "127.0.0.1:4000" (Endpoint.to_string ep)
  | Error m -> Alcotest.fail m);
  (match Spec.parse_peer "p5#1:10.0.0.2:4001" with
  | Ok (pid, ep) ->
    check string "incarnated pid" "p5#1" (Pid.to_string pid);
    check string "host:port" "10.0.0.2:4001" (Endpoint.to_string ep)
  | Error m -> Alcotest.fail m);
  check bool "garbage pid rejected" true
    (Result.is_error (Spec.parse_peer "zebra:4000"));
  check bool "missing port rejected" true (Result.is_error (Spec.parse_peer "p1"));
  match Spec.parse_peers "p0:4000, p1:10.0.0.2:4001" with
  | Ok peers -> check int "two peers" 2 (List.length peers)
  | Error m -> Alcotest.fail m

let test_spec_netem_action () =
  (* Satellite: the whole timeline spec validates at parse time - unknown
     keys, malformed floats and out-of-range values die with messages
     naming the offender, before any node would spawn. *)
  (match Spec.parse_netem_action "4:all:loss=0.2,latency=0.01" with
  | Ok { Spec.at_time; target; spec } ->
    check (Alcotest.float 1e-9) "time" 4.0 at_time;
    check bool "all targets" true (target = None);
    check (Alcotest.float 1e-9) "loss" 0.2 spec.Codec.n_loss;
    check (Alcotest.float 1e-9) "latency" 0.01 spec.Codec.n_latency
  | Error m -> Alcotest.fail m);
  (match Spec.parse_netem_action "1.5:p2:peer=p0,dup=1" with
  | Ok { Spec.target = Some t; spec = { Codec.peer = Some peer; n_dup; _ }; _ }
    ->
    check string "target" "p2" (Pid.to_string t);
    check string "link peer" "p0" (Pid.to_string peer);
    check (Alcotest.float 1e-9) "dup=1 allowed (inclusive)" 1.0 n_dup
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error m -> Alcotest.fail m);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  let err_containing s frag =
    match Spec.parse_netem_action s with
    | Ok _ -> Alcotest.failf "%S accepted" s
    | Error m ->
      check bool
        (Printf.sprintf "%S rejected mentioning %S (got %S)" s frag m)
        true (contains m frag)
  in
  err_containing "4:all:losss=0.2" "unknown netem key";
  err_containing "4:all:loss=0.2x" "bad value";
  err_containing "4:all:loss=1.0" "out of range";
  err_containing "4:all:loss=nan" "out of range";
  err_containing "4:all:latency=-1" "out of range";
  err_containing "4:all:peer=zebra" "pid";
  err_containing "4:all:" "at least one";
  err_containing "-1:all:loss=0.1" "time";
  err_containing "4:zebra:loss=0.1" "pid";
  err_containing "loss=0.1" "malformed netem action"

(* ---- UDP: wire bytes are exactly the codec's frame bytes ---- *)

let app n = Wire.App { app_ver = 0; payload = Codec.Blob (string_of_int n) }
let category = Gmp_platform.Stats.intern "test"

let test_udp_wire_byte_identity () =
  (* A raw socket plays the peer: whatever the node's UDP transport puts
     on the wire must be byte-identical to [Codec.encode_frame] of the
     logical frame - the seam added no envelope, so pre-seam nodes and
     golden frame files still speak this wire. *)
  let raw = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind raw (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let raw_port =
    match Unix.getsockname raw with
    | Unix.ADDR_INET (_, port) -> port
    | _ -> assert false
  in
  let dst = p 9 in
  let node =
    Node.create
      ~peers:[ (dst, Endpoint.loopback ~port:raw_port) ]
      ~pid:(p 0)
      ~bind:(Endpoint.loopback ~port:0) ()
  in
  let plat = Node.platform node in
  (* send is synchronous on the UDP path: the datagram leaves here. *)
  plat.Gmp_platform.Platform.send ~dst ~category (app 7);
  let expected =
    Codec.encode_frame
      (Codec.Data
         { src = p 0; chan_seq = 0; vc = Node.clock node; msg = app 7 })
  in
  Unix.setsockopt_float raw Unix.SO_RCVTIMEO 5.0;
  let buf = Bytes.create 65536 in
  let n, _ = Unix.recvfrom raw buf 0 (Bytes.length buf) [] in
  check string "wire bytes = Codec.encode_frame" expected
    (Bytes.sub_string buf 0 n);
  check string "transport kind" "udp" (Node.transport_kind node);
  check bool "datagrams_sent counted" true
    (List.assoc "transport.datagrams_sent" (Node.transport_counters node) >= 1);
  Unix.close raw;
  Node.close node

(* ---- TCP: framed exchange end-to-end ---- *)

let payload_of = function
  | Wire.App { payload = Codec.Blob s; _ } -> int_of_string s
  | m -> Alcotest.failf "unexpected message %a" Wire.pp m

let test_tcp_fifo_exchange () =
  (* Two real nodes over TCP streams: every message FIFO exactly-once,
     the shutdown travelling over the TCP control plane. *)
  let n = 40 in
  let rpid = p 1 and spid = p 0 in
  let recv =
    Node.create ~transport:Transport.Tcp ~rto:0.05 ~pid:rpid
      ~bind:(Endpoint.loopback ~port:0) ()
  in
  let send =
    Node.create ~transport:Transport.Tcp
      ~peers:[ (rpid, Node.endpoint recv) ]
      ~rto:0.05 ~pid:spid
      ~bind:(Endpoint.loopback ~port:0) ()
  in
  let got = ref [] in
  let rplat = Node.platform recv in
  rplat.Gmp_platform.Platform.set_receiver (fun ~src:_ msg ->
      got := payload_of msg :: !got);
  let splat = Node.platform send in
  for i = 0 to n - 1 do
    splat.Gmp_platform.Platform.send ~dst:rpid ~category (app i)
  done;
  splat.Gmp_platform.Platform.every ~interval:0.05 (fun () ->
      if Node.idle send then splat.Gmp_platform.Platform.halt ());
  let rd = Domain.spawn (fun () -> Node.run ~until:20.0 recv) in
  let sd = Domain.spawn (fun () -> Node.run ~until:20.0 send) in
  Domain.join sd;
  let ctrl = Ctrl.create ~transport:Transport.Tcp () in
  check bool "shutdown acked over tcp" true
    (Ctrl.send ctrl ~attempts:100 ~interval:0.05 ~port:(Node.port recv)
       Codec.Shutdown);
  Ctrl.close ctrl;
  Domain.join rd;
  check (Alcotest.list int) "FIFO exactly-once over streams"
    (List.init n Fun.id) (List.rev !got);
  let counter node name = List.assoc name (Node.transport_counters node) in
  check string "kind" "tcp" (Node.transport_kind send);
  check bool "sender connected" true (counter send "transport.connects" >= 1);
  check bool "sender framed traffic out" true (counter send "transport.frames_sent" >= n);
  check bool "receiver accepted" true (counter recv "transport.accepts" >= 1);
  check bool "receiver framed traffic in" true
    (counter recv "transport.frames_received" >= n);
  Node.close send;
  Node.close recv

let alloc_tcp_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt s Unix.SO_REUSEADDR true;
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname s with
    | Unix.ADDR_INET (_, port) -> port
    | _ -> assert false
  in
  Unix.close s;
  port

let test_tcp_reconnect_with_backoff () =
  (* The peer is not up yet: connects fail, the route backs off, and the
     ARQ's retransmissions keep probing. When the peer finally binds the
     very port, a reconnect succeeds and the queued message lands. *)
  let rpid = p 1 in
  let late_port = alloc_tcp_port () in
  let send =
    Node.create ~transport:Transport.Tcp
      ~peers:[ (rpid, Endpoint.loopback ~port:late_port) ]
      ~tcp_config:{ Transport.default_tcp with backoff_min = 0.05 }
      ~rto:0.05 ~pid:(p 0)
      ~bind:(Endpoint.loopback ~port:0) ()
  in
  let splat = Node.platform send in
  splat.Gmp_platform.Platform.send ~dst:rpid ~category (app 42);
  (* A first stretch alone: nothing is listening on late_port. *)
  Node.run ~until:1.0 send;
  let counter node name = List.assoc name (Node.transport_counters node) in
  check bool "connects were attempted" true (counter send "transport.connects" >= 2);
  check bool "attempts beyond the first count as reconnects" true
    (counter send "transport.reconnects" >= 1);
  check bool "each failed before establishing" true
    (counter send "transport.conn_failures" >= 1);
  (* Now the peer appears on exactly that endpoint. *)
  let recv =
    Node.create ~transport:Transport.Tcp ~rto:0.05 ~pid:rpid
      ~bind:(Endpoint.loopback ~port:late_port) ()
  in
  let got = ref [] in
  let rplat = Node.platform recv in
  rplat.Gmp_platform.Platform.set_receiver (fun ~src:_ msg ->
      got := payload_of msg :: !got);
  splat.Gmp_platform.Platform.every ~interval:0.05 (fun () ->
      if Node.idle send then splat.Gmp_platform.Platform.halt ());
  let rd = Domain.spawn (fun () -> Node.run ~until:15.0 recv) in
  let sd = Domain.spawn (fun () -> Node.run ~until:15.0 send) in
  Domain.join sd;
  let ctrl = Ctrl.create ~transport:Transport.Tcp () in
  check bool "shutdown acked" true
    (Ctrl.send ctrl ~attempts:100 ~interval:0.05 ~port:late_port Codec.Shutdown);
  Ctrl.close ctrl;
  Domain.join rd;
  check (Alcotest.list int) "the retransmitted message landed once" [ 42 ]
    (List.rev !got);
  Node.close send;
  Node.close recv

let test_tcp_half_open_detection () =
  (* An established stream whose peer accepts but never reads: once the
     kernel buffers fill, the outbox stalls, and the stalled-progress
     check must kill the connection instead of trusting TCP's
     minutes-long patience. *)
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  (try Unix.setsockopt_int listener Unix.SO_RCVBUF 4096
   with Unix.Unix_error _ -> ());
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 4;
  let port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, port) -> port
    | _ -> assert false
  in
  let rpid = p 1 in
  let send =
    Node.create ~transport:Transport.Tcp
      ~peers:[ (rpid, Endpoint.loopback ~port) ]
      ~tcp_config:
        { Transport.default_tcp with
          half_open_timeout = 0.4;
          backoff_min = 0.05;
          sndbuf = Some 4096 }
      ~rto:0.1 ~pid:(p 0)
      ~bind:(Endpoint.loopback ~port:0) ()
  in
  (* Big payloads fill the shrunken buffers in a few frames; the ARQ's
     retransmissions keep refilling the outbox after each kill. *)
  let big = Wire.App { app_ver = 0; payload = Codec.Blob (String.make 16000 'x') } in
  let splat = Node.platform send in
  let accepted = ref [] in
  let accept_pending () =
    (* Accept whatever the node has connected (never read from it). *)
    match Unix.select [ listener ] [] [] 0.0 with
    | [ _ ], _, _ ->
      let fd, _ = Unix.accept listener in
      accepted := fd :: !accepted
    | _ -> ()
  in
  for i = 0 to 4 do
    ignore i;
    splat.Gmp_platform.Platform.send ~dst:rpid ~category big
  done;
  let deadline = Unix.gettimeofday () +. 5.0 in
  let counter name = List.assoc name (Node.transport_counters send) in
  while counter "transport.half_open_drops" = 0 && Unix.gettimeofday () < deadline do
    accept_pending ();
    Node.run ~until:0.1 send
  done;
  check bool "half-open stream was killed" true (counter "transport.half_open_drops" >= 1);
  Node.close send;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !accepted;
  Unix.close listener

(* ---- port reservation ---- *)

let test_reserve_ports_distinct () =
  List.iter
    (fun kind ->
      let ports = Transport.reserve_ports kind 64 in
      let name = Transport.kind_name kind in
      check int (name ^ ": 64 ports") 64 (List.length ports);
      check int (name ^ ": no duplicates") 64
        (List.length (List.sort_uniq Int.compare ports));
      check bool (name ^ ": real ports") true (List.for_all (fun p -> p > 0) ports))
    [ Transport.Udp; Transport.Tcp ]

let suite =
  [ Alcotest.test_case "endpoint: parse & print" `Quick test_endpoint_parse;
    Alcotest.test_case "endpoint: make validates" `Quick
      test_endpoint_make_validates;
    Alcotest.test_case "spec: peers" `Quick test_spec_peers;
    Alcotest.test_case "spec: netem timeline validates at parse time" `Quick
      test_spec_netem_action;
    Alcotest.test_case "ports: one batch of 64 has no duplicates" `Quick
      test_reserve_ports_distinct;
    Alcotest.test_case "udp: wire bytes identical to codec frames" `Quick
      test_udp_wire_byte_identity;
    Alcotest.test_case "tcp: FIFO exactly-once over streams" `Slow
      test_tcp_fifo_exchange;
    Alcotest.test_case "tcp: lazy reconnect with backoff" `Slow
      test_tcp_reconnect_with_backoff;
    Alcotest.test_case "tcp: half-open stream detection" `Slow
      test_tcp_half_open_detection ]
