(** The transport seam: how a live node's encoded frames reach peers.

    A record of closures in the style of [Gmp_platform.Platform]: the
    node above it addresses whole frames to pids and receives whole
    frames with an {!origin} it can reply to and learn routes from; the
    record hides whether the wire is one UDP socket or a set of managed
    TCP streams. The contract is deliberately the one UDP already gave
    the protocol stack - best-effort frame delivery with boundaries
    preserved - so the ARQ above the seam stays the sole owner of
    reliability on either implementation. *)

open Gmp_base
module Endpoint = Gmp_net.Endpoint

type origin = {
  reply : string -> unit;
      (** Send one frame back along the arrival path (UDP: the datagram's
          source address; TCP: the connection it arrived on). Lets a
          receiver answer peers it has no configured route to. *)
  learn : Pid.t -> unit;
      (** Bind this origin as the route to [pid] if no route is known -
          how a joiner that announced itself becomes reachable.
          Configured routes are never overridden by traffic. *)
}

type t = {
  kind : string;  (** ["udp"] or ["tcp"], for logs and summaries *)
  endpoint : unit -> Endpoint.t;
      (** the actually-bound local endpoint (ephemeral port resolved) *)
  send : dst:Pid.t -> string -> unit;
      (** Best-effort: an unroutable or unflushable frame is counted and
          dropped, never raised on. *)
  add_peer : Pid.t -> Endpoint.t -> unit;
  remove_peer : Pid.t -> unit;
      (** Forget the route and (TCP) tear down its connection - used when
          a peer is excluded so a later rejoin starts clean. *)
  rfds : unit -> Unix.file_descr list;  (** descriptors to select for read *)
  wfds : unit -> Unix.file_descr list;
      (** descriptors with pending writes or in-flight connects *)
  next_deadline : unit -> float option;
      (** earliest time [tick] has work (connect/half-open timeouts) *)
  tick : now:float -> unit;
      (** advance connection management: complete or time out connects,
          flush outboxes, kill half-open streams *)
  drain : (origin:origin -> string -> unit) -> unit;
      (** Deliver every readable complete frame to the callback. Never
          blocks; partial TCP frames stay buffered until a later drain. *)
  counters : unit -> (string * int) list;
      (** transport-specific counters for the JSONL summary and the
          cluster report *)
  close : unit -> unit;
}

type kind = Udp | Tcp

val kind_name : kind -> string
val kind_of_string : string -> kind option

type tcp_config = {
  connect_timeout : float;
      (** seconds before an unfinished connect is abandoned *)
  half_open_timeout : float;
      (** seconds an established connection's outbox may stall before the
          stream is declared half-open and killed *)
  backoff_min : float;  (** first reconnect delay after a failure *)
  backoff_max : float;  (** cap; the delay doubles per failure up to it *)
  max_outbox : int;
      (** queued bytes per connection; frames beyond it are dropped (the
          ARQ retransmits them) rather than buffered unboundedly *)
  sndbuf : int option;
      (** [SO_SNDBUF] override; tests shrink it to force partial writes
          and half-open detection *)
}

val default_tcp : tcp_config

val reserve_ports : kind -> int -> int list
(** [reserve_ports kind n] draws [n] distinct free loopback ports for
    [kind]'s socket type: all [n] sockets are bound at once, then all are
    released, so the batch never repeats a port. A port is free when drawn;
    bind it (with [SO_REUSEADDR], as {!make} does) soon after. *)

val resolve : Endpoint.t -> Unix.sockaddr
(** Name resolution at the transport edge: IPv4 literal or getaddrinfo.
    Raises [Failure] on an unresolvable host. *)

val make :
  ?tcp_config:tcp_config ->
  kind:kind ->
  bind:Endpoint.t ->
  now:(unit -> float) ->
  log:(string -> unit) ->
  unit ->
  t
(** Bind a transport on [bind] (port 0 = ephemeral; read back via
    [endpoint]). [now] is the node's clock - connection management uses
    it so tests can observe deadlines consistently; [log] receives
    human-oriented transport events. Constructing a TCP transport
    ignores [SIGPIPE] process-wide (a write to a dead stream must be a
    [Unix_error], not a process kill). *)
