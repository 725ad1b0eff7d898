(* gmp-cluster: spawn a fleet of gmp-node processes on loopback, drive a
   fault workload against them, and judge the run.

   The orchestrator is deliberately outside the protocol: it allocates
   ports, forks real OS processes, injects faults the way an unkind world
   would (SIGKILL for crashes, receiver-side blackholing for partitions),
   and afterwards reassembles the per-node JSONL event logs into one
   global trace for [Gmp_core.Checker.check_run] - the same judge every
   simulated run faces. Survivor views come from each node's own log (its
   last Installed event), so a SIGKILLed process needs no cooperation.

   Exit codes (stable, for CI):
     0  run completed and the checker found no violations
     1  harness failure (spawn error, unreadable log, stuck node)
     2  checker violations on the reassembled trace *)

open Gmp_base
open Gmp_core
open Cmdliner
module J = Json
module Obs = Gmp_obs.Obs

(* ---- workload specs ---- *)

type action =
  | Kill of Pid.t
  | Join of Pid.t
  | Blackhole of { at : Pid.t; from : Pid.t }
  | Unblackhole of { at : Pid.t; from : Pid.t }
  | Netem of { at : Pid.t option; spec : Gmp_live.Codec.netem_spec }
      (* retune fault injection at node [at] ([None] = every live node);
         [spec.peer] picks the incoming link, [None] = the node default *)

let split_spec s = String.split_on_char ':' s

let time_of s =
  match float_of_string_opt s with
  | Some t when t >= 0.0 -> Some t
  | _ -> None

let pid_of s = Pid.of_string s

let timed_pid_conv what =
  let parse s =
    match split_spec s with
    | [ t; p ] -> (
      match (time_of t, pid_of p) with
      | Some t, Some p -> Ok (t, p)
      | _ -> Error (`Msg (Printf.sprintf "bad %s spec %S" what s)))
    | _ ->
      Error (`Msg (Printf.sprintf "bad %s spec %S (expected T:PID)" what s))
  in
  Arg.conv (parse, fun ppf (t, p) -> Fmt.pf ppf "%g:%a" t Pid.pp p)

let timed_pair_conv what =
  let parse s =
    match split_spec s with
    | [ t; at; from ] -> (
      match (time_of t, pid_of at, pid_of from) with
      | Some t, Some at, Some from -> Ok (t, at, from)
      | _ -> Error (`Msg (Printf.sprintf "bad %s spec %S" what s)))
    | _ ->
      Error
        (`Msg (Printf.sprintf "bad %s spec %S (expected T:AT:FROM)" what s))
  in
  Arg.conv
    (parse, fun ppf (t, at, from) -> Fmt.pf ppf "%g:%a:%a" t Pid.pp at Pid.pp from)

(* --netem T:AT:SPEC - at T seconds, retune fault injection at node AT
   (or every node, AT = "all"). SPEC is comma-separated k=v pairs over the
   CLI vocabulary: loss, latency, jitter, dup, reorder (plus peer=PID to
   retune a single incoming link). Unset keys mean zero: a spec always
   describes the whole replacement model, not a delta. [Spec] validates
   the whole action - unknown keys, malformed floats, out-of-range values
   - so a bad timeline dies as a cmdliner error before any node spawns,
   never at T seconds into a live run. *)
let netem_conv =
  let parse s =
    match Gmp_live.Spec.parse_netem_action s with
    | Ok { Gmp_live.Spec.at_time; target; spec } -> Ok (at_time, target, spec)
    | Error m -> Error (`Msg m)
  in
  let print ppf (t, at, (spec : Gmp_live.Codec.netem_spec)) =
    Fmt.pf ppf "%g:%s:loss=%g,latency=%g,jitter=%g,dup=%g,reorder=%g%s" t
      (match at with None -> "all" | Some p -> Pid.to_string p)
      spec.n_loss spec.n_latency spec.n_jitter spec.n_dup spec.n_reorder
      (match spec.peer with
      | None -> ""
      | Some p -> ",peer=" ^ Pid.to_string p)
  in
  Arg.conv (parse, print)

let transport_conv =
  Arg.enum [ ("udp", Gmp_live.Transport.Udp); ("tcp", Gmp_live.Transport.Tcp) ]

(* ---- infrastructure ---- *)

let default_node_bin () =
  (* gmp-node is built alongside this binary; prefer the sibling, fall back
     to PATH. *)
  let dir = Filename.dirname Sys.executable_name in
  let candidates =
    [ Filename.concat dir "gmp_node.exe";
      Filename.concat dir "gmp_node";
      Filename.concat dir "gmp-node" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "gmp-node"

type proc = {
  pid : Pid.t;
  port : int;
  ospid : int;
  log_file : string;
  mutable killed : bool;
  mutable reaped : bool;
}

let pids_arg ps = String.concat "," (List.map Pid.to_string ps)

let spawn ~node_bin ~dir ~transport ~bind_host ~ports ~initial ~hb_interval
    ~hb_timeout ~rto ~netem ~netem_seed ~run_for ~verbose ~joiner pid =
  let port = List.assoc pid ports in
  let log_file = Filename.concat dir (Pid.to_string pid ^ ".jsonl") in
  let peers =
    List.filter_map
      (fun (p, port) ->
        if Pid.equal p pid then None
        else Some (Printf.sprintf "%s:%s:%d" (Pid.to_string p) bind_host port))
      ports
  in
  let loss, latency, jitter, dup, reorder = netem in
  let args =
    [ node_bin; "--self"; Pid.to_string pid; "--transport";
      Gmp_live.Transport.kind_name transport; "--bind";
      Printf.sprintf "%s:%d" bind_host port;
      "--initial"; pids_arg initial; "--log"; log_file; "--hb-interval";
      string_of_float hb_interval; "--hb-timeout"; string_of_float hb_timeout;
      "--rto"; string_of_float rto; "--loss"; string_of_float loss;
      "--latency"; string_of_float latency; "--jitter";
      string_of_float jitter; "--dup"; string_of_float dup; "--reorder";
      string_of_float reorder; "--netem-seed"; string_of_int netem_seed;
      "--run-for"; string_of_float run_for ]
    @ List.concat_map (fun p -> [ "--peer"; p ]) peers
    @ (if joiner then [ "--joiner"; "--contacts"; pids_arg initial ] else [])
    @ if verbose then [ "--verbose" ] else []
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let ospid =
    Unix.create_process node_bin (Array.of_list args) null Unix.stdout
      Unix.stderr
  in
  Unix.close null;
  { pid; port; ospid; log_file; killed = false; reaped = false }

(* All control traffic rides the acked channel: the node answers Ctrl_ack
   after applying, and Ctrl.send retries until it does - so a fault command
   survives the very loss it injects. *)

let reap_with_grace procs ~grace =
  (* Poll-reap every live child; SIGKILL whoever outstays the grace. *)
  let deadline = Unix.gettimeofday () +. grace in
  let stuck = ref [] in
  let rec wait_all () =
    let pending =
      List.filter (fun p -> not (p.reaped || p.killed)) procs
    in
    if pending <> [] then
      if Unix.gettimeofday () > deadline then
        List.iter
          (fun p ->
            stuck := p.pid :: !stuck;
            (try Unix.kill p.ospid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] p.ospid);
            p.reaped <- true)
          pending
      else begin
        List.iter
          (fun p ->
            match Unix.waitpid [ Unix.WNOHANG ] p.ospid with
            | 0, _ -> ()
            | _, _ -> p.reaped <- true
            | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
              p.reaped <- true)
          pending;
        if List.exists (fun p -> not (p.reaped || p.killed)) procs then begin
          Unix.sleepf 0.05;
          wait_all ()
        end
      end
  in
  wait_all ();
  List.rev !stuck

(* ---- harvest ---- *)

let last_install events =
  List.fold_left
    (fun acc (e : Trace.event) ->
      match e.kind with
      | Trace.Installed { ver; view_members } -> Some (ver, view_members)
      | _ -> acc)
    None events

let has_quit events =
  List.exists
    (fun (e : Trace.event) ->
      match e.kind with Trace.Quit _ | Trace.Crashed -> true | _ -> false)
    events

(* ---- the run ---- *)

let run_cluster n joiners run_for kills joins blackholes unblackholes netems
    transport bind_host hb_interval hb_timeout rto netem netem_seed dir
    node_bin json liveness keep_logs verbose =
  let initial = Pid.group n in
  let join_pids = List.map snd joins in
  (match
     List.find_opt (fun p -> List.exists (Pid.equal p) initial) join_pids
   with
  | Some p ->
    Fmt.epr "join pid %a is already an initial member@." Pid.pp p;
    exit 1
  | None -> ());
  ignore joiners;
  let all_pids = initial @ join_pids in
  let dir =
    match dir with
    | Some d ->
      if not (Sys.file_exists d) then Sys.mkdir d 0o755;
      d
    | None ->
      let d =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "gmp-cluster-%d" (Unix.getpid ()))
      in
      if not (Sys.file_exists d) then Sys.mkdir d 0o755;
      d
  in
  let node_bin = match node_bin with Some b -> b | None -> default_node_bin () in
  let ports =
    List.combine all_pids
      (Gmp_live.Transport.reserve_ports transport (List.length all_pids))
  in
  let ctrl = Gmp_live.Ctrl.create ~transport () in
  let kill_times = ref [] in
  let harness_errors = ref [] in
  let note fmt = Printf.ksprintf (fun m -> harness_errors := m :: !harness_errors) fmt in
  let send_ctrl ~what ~port cmd =
    if not (Gmp_live.Ctrl.send ctrl ~host:bind_host ~port cmd) then
      note "%s: no ack from node on port %d" what port
  in
  (* Nodes outlive the orchestrated window by a shutdown grace, never more:
     --run-for is their own deadman switch. *)
  let node_run_for = run_for +. 30.0 in
  let spawn1 ~joiner pid =
    spawn ~node_bin ~dir ~transport ~bind_host ~ports ~initial ~hb_interval
      ~hb_timeout ~rto ~netem ~netem_seed ~run_for:node_run_for ~verbose
      ~joiner pid
  in
  let procs = ref (List.map (spawn1 ~joiner:false) initial) in
  let proc_of pid = List.find_opt (fun p -> Pid.equal p.pid pid) !procs in
  let started = Unix.gettimeofday () in
  let timeline =
    List.sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (List.map (fun (t, p) -> (t, Kill p)) kills
      @ List.map (fun (t, p) -> (t, Join p)) joins
      @ List.map (fun (t, at, from) -> (t, Blackhole { at; from })) blackholes
      @ List.map
          (fun (t, at, from) -> (t, Unblackhole { at; from }))
          unblackholes
      @ List.map (fun (t, at, spec) -> (t, Netem { at; spec })) netems)
  in
  let sleep_until t =
    let remaining = started +. t -. Unix.gettimeofday () in
    if remaining > 0.0 then Unix.sleepf remaining
  in
  List.iter
    (fun (t, act) ->
      sleep_until t;
      match act with
      | Kill p -> (
        match proc_of p with
        | None -> note "kill %s: no such node" (Pid.to_string p)
        | Some proc ->
          if not json then
            Fmt.pr "t=%.1f  SIGKILL %a (os pid %d)@." t Pid.pp p proc.ospid;
          (try Unix.kill proc.ospid Sys.sigkill
           with Unix.Unix_error _ -> note "kill %s failed" (Pid.to_string p));
          ignore (Unix.waitpid [] proc.ospid);
          (* a SIGKILLed node logs no Crashed event; remember the wall
             instant so the latency derivation has its t0 *)
          kill_times := (p, Unix.gettimeofday ()) :: !kill_times;
          proc.killed <- true;
          proc.reaped <- true)
      | Join p ->
        if not json then Fmt.pr "t=%.1f  spawn joiner %a@." t Pid.pp p;
        procs := !procs @ [ spawn1 ~joiner:true p ]
      | Blackhole { at; from } -> (
        match proc_of at with
        | None -> note "blackhole at %s: no such node" (Pid.to_string at)
        | Some proc ->
          if not json then
            Fmt.pr "t=%.1f  blackhole %a -> %a@." t Pid.pp from Pid.pp at;
          send_ctrl
            ~what:(Printf.sprintf "blackhole at %s" (Pid.to_string at))
            ~port:proc.port (Gmp_live.Codec.Blackhole from))
      | Unblackhole { at; from } -> (
        match proc_of at with
        | None -> note "unblackhole at %s: no such node" (Pid.to_string at)
        | Some proc ->
          if not json then
            Fmt.pr "t=%.1f  unblackhole %a -> %a@." t Pid.pp from Pid.pp at;
          send_ctrl
            ~what:(Printf.sprintf "unblackhole at %s" (Pid.to_string at))
            ~port:proc.port (Gmp_live.Codec.Unblackhole from))
      | Netem { at; spec } ->
        let targets =
          match at with
          | Some p -> (
            match proc_of p with
            | None ->
              note "netem at %s: no such node" (Pid.to_string p);
              []
            | Some proc -> [ proc ])
          | None ->
            List.filter (fun p -> not (p.killed || p.reaped)) !procs
        in
        List.iter
          (fun proc ->
            if not json then
              Fmt.pr "t=%.1f  netem %a loss=%g latency=%g jitter=%g@." t
                Pid.pp proc.pid spec.Gmp_live.Codec.n_loss
                spec.Gmp_live.Codec.n_latency spec.Gmp_live.Codec.n_jitter;
            send_ctrl
              ~what:(Printf.sprintf "netem at %s" (Pid.to_string proc.pid))
              ~port:proc.port (Gmp_live.Codec.Set_netem spec))
          targets)
    timeline;
  sleep_until run_for;
  (* Scrape each survivor's metrics registry over the same acked channel
     before asking it to stop - a fallback snapshot in case its final
     metrics line never lands in the log. The log's own line wins later;
     a node that already quit simply yields nothing here, which is fine. *)
  let scraped =
    List.filter_map
      (fun p ->
        if p.killed || p.reaped then None
        else
          Option.bind
            (Gmp_live.Ctrl.query ctrl ~attempts:20 ~host:bind_host
               ~port:p.port)
            (fun payload ->
              match J.of_string payload with
              | Error _ -> None
              | Ok j -> (
                match Obs.Snapshot.of_json j with
                | Error _ -> None
                | Ok snap -> Some (p.pid, snap))))
      !procs
  in
  (* Ask survivors to stop over the acked channel. A node that already
     exited on its own (protocol quit) never acks - that is not an error,
     so no [note] here; the nodes' own --run-for is the last resort. *)
  List.iter
    (fun p ->
      if not (p.killed || p.reaped) then
        ignore
          (Gmp_live.Ctrl.send ctrl ~attempts:20 ~host:bind_host ~port:p.port
             Gmp_live.Codec.Shutdown
            : bool))
    !procs;
  let stuck = reap_with_grace !procs ~grace:8.0 in
  List.iter
    (fun p -> note "node %s ignored shutdown; SIGKILLed" (Pid.to_string p))
    stuck;
  Gmp_live.Ctrl.close ctrl;
  (* ---- harvest and judge ---- *)
  let per_node =
    List.map
      (fun p ->
        match Gmp_live.Trace_io.read_file p.log_file with
        | Ok events -> (p, events)
        | Error m ->
          note "unreadable log %s: %s" p.log_file m;
          (p, []))
      !procs
  in
  let killed = List.filter_map (fun p -> if p.killed then Some p.pid else None) !procs in
  let stuck_dead = stuck in
  let dead =
    List.sort_uniq Pid.compare
      (killed @ stuck_dead
      @ List.filter_map
          (fun (p, events) -> if has_quit events then Some p.pid else None)
          per_node)
  in
  let is_dead p = List.exists (Pid.equal p) dead in
  let surviving_views =
    List.filter_map
      (fun (p, events) ->
        if is_dead p.pid then None
        else
          match last_install events with
          | Some (ver, members) -> Some (p.pid, ver, members)
          | None -> None (* never-admitted joiner: holds no view *))
      per_node
  in
  let final_view =
    match surviving_views with
    | [] -> []
    | (_, ver0, m0) :: rest ->
      let same_members a b =
        List.length a = List.length b && List.for_all2 Pid.equal a b
      in
      if
        List.for_all
          (fun (_, ver, m) -> ver = ver0 && same_members m m0)
          rest
      then m0
      else []
  in
  let arq =
    (* Counters summaries exist only for nodes that shut down cleanly;
       SIGKILLed ones have none, by design. *)
    List.filter_map
      (fun p ->
        Option.map
          (fun cs -> (p.pid, cs))
          (Gmp_live.Trace_io.read_arq p.log_file))
      !procs
  in
  let transports =
    List.filter_map
      (fun p ->
        Option.map
          (fun (kind, cs) -> (p.pid, kind, cs))
          (Gmp_live.Trace_io.read_transport p.log_file))
      !procs
  in
  let trace = Gmp_live.Trace_io.reassemble (List.map snd per_node) in
  (* Per-node registry snapshots: a clean shutdown leaves a final metrics
     line in the log (most complete, wins); a SIGKILLed node contributes
     its last periodic line; the pre-shutdown scrape covers a node whose
     log was lost. Detection latency is a cluster-level fact, derived from
     the reassembled trace with the orchestrator's own kill instants as
     the crash times (end-of-run SIGKILLs of stuck nodes are reaping, not
     injected crashes, so [stuck] is deliberately absent). *)
  let node_metrics =
    List.filter_map
      (fun p ->
        match Gmp_live.Trace_io.read_metrics p.log_file with
        | Some snap -> Some (p.pid, snap)
        | None ->
          Option.map (fun s -> (p.pid, s)) (List.assoc_opt p.pid scraped))
      !procs
  in
  let metrics =
    let latency = Obs.create () in
    Latency.observe ~crashes:(List.rev !kill_times) latency trace;
    try
      Obs.Snapshot.merge_all
        (Obs.snapshot latency :: List.map snd node_metrics)
    with Invalid_argument m ->
      note "metrics merge failed: %s" m;
      Obs.snapshot latency
  in
  let latency_summary =
    let dist name =
      match Obs.Snapshot.find metrics name with
      | Some (Obs.Snapshot.Histogram h) ->
        let q p =
          match Obs.Snapshot.quantile h p with
          | Some v when Float.is_finite v -> J.float v
          | _ -> J.null
        in
        J.obj
          [ ("count", J.int (Obs.Snapshot.count h));
            ("p50", q 0.5);
            ("p99", q 0.99) ]
      | _ -> J.obj [ ("count", J.int 0); ("p50", J.null); ("p99", J.null) ]
    in
    [ ( "crash_to_first_suspicion", dist Latency.crash_to_first_suspicion );
      ("crash_to_view_installed", dist Latency.crash_to_view_installed);
      ("join_to_installed", dist Latency.join_to_installed) ]
  in
  let violations =
    Checker.check_run ~liveness trace ~initial ~surviving_views ~dead
      ~final_view
  in
  let harness_errors = List.rev !harness_errors in
  let exit_code =
    if harness_errors <> [] then 1 else if violations <> [] then 2 else 0
  in
  if json then
    Fmt.pr "%s@."
      (J.to_compact_string
         (J.obj
            [ ("n", J.int n);
              ("run_for", J.float run_for);
              ("events", J.int (Trace.length trace));
              ("dead", J.list (List.map Export.json_of_pid dead));
              ( "surviving_views",
                J.list
                  (List.map
                     (fun (p, ver, members) ->
                       J.obj
                         [ ("pid", Export.json_of_pid p);
                           ("version", J.int ver);
                           ("view", J.list (List.map Export.json_of_pid members))
                         ])
                     surviving_views) );
              ("final_view", J.list (List.map Export.json_of_pid final_view));
              ( "violations",
                J.list (List.map Export.json_of_violation violations) );
              ( "arq",
                J.list
                  (List.map
                     (fun (p, cs) ->
                       J.obj
                         (("pid", Export.json_of_pid p)
                         :: List.map (fun (k, v) -> (k, J.int v)) cs))
                     arq) );
              ( "transport",
                J.list
                  (List.map
                     (fun (p, kind, cs) ->
                       J.obj
                         (("pid", Export.json_of_pid p)
                         :: ("kind", J.string kind)
                         :: List.map (fun (k, v) -> (k, J.int v)) cs))
                     transports) );
              ("metrics", Obs.Snapshot.to_json metrics);
              ("latency", J.obj latency_summary);
              ("harness_errors", J.list (List.map J.string harness_errors));
              ("logs", J.string dir);
              ("exit", J.int exit_code) ]))
  else begin
    Fmt.pr "@.%d nodes, %.1fs, %d trace events reassembled from %s@."
      (List.length !procs) run_for (Trace.length trace) dir;
    Fmt.pr "dead: %a@." Fmt.(list ~sep:(any " ") Pid.pp) dead;
    List.iter
      (fun (p, ver, members) ->
        Fmt.pr "%a: v%d %a@." Pid.pp p ver
          Fmt.(list ~sep:(any ",") Pid.pp)
          members)
      surviving_views;
    List.iter
      (fun (p, cs) ->
        Fmt.pr "%a arq: %a@." Pid.pp p
          Fmt.(list ~sep:(any " ") (pair ~sep:(any "=") string int))
          cs)
      arq;
    List.iter
      (fun (p, kind, cs) ->
        Fmt.pr "%a %s: %a@." Pid.pp p kind
          Fmt.(list ~sep:(any " ") (pair ~sep:(any "=") string int))
          cs)
      transports;
    if Obs.Snapshot.metrics metrics <> [] then
      Fmt.pr "cluster metrics (per-node registries merged):@.%a@."
        Obs.Snapshot.pp metrics;
    List.iter (fun m -> Fmt.pr "harness error: %s@." m) harness_errors;
    (match violations with
    | [] -> Fmt.pr "checker: OK (GMP-0..GMP-5 hold on the live trace)@."
    | vs ->
      List.iter (fun v -> Fmt.pr "checker: %a@." Checker.pp_violation v) vs)
  end;
  if not keep_logs && exit_code = 0 then begin
    List.iter
      (fun p -> try Sys.remove p.log_file with Sys_error _ -> ())
      !procs;
    try Sys.rmdir dir with Sys_error _ -> ()
  end;
  exit_code

(* ---- cmdliner plumbing ---- *)

let n_term =
  Arg.(
    value & opt int 5 & info [ "nodes" ] ~docv:"N" ~doc:"Initial group size.")

let joiners_term =
  Arg.(
    value & opt int 0
    & info [ "joiners" ] ~docv:"K"
        ~doc:"Reserved for symmetry with the sim CLI (joins come from \
              --join specs).")

let run_for_term =
  Arg.(
    value & opt float 12.0
    & info [ "run-for" ] ~docv:"SECS" ~doc:"Orchestrated window length.")

let kills_term =
  Arg.(
    value
    & opt_all (timed_pid_conv "kill") []
    & info [ "kill" ] ~docv:"T:PID"
        ~doc:"SIGKILL the node at T seconds, repeatable.")

let joins_term =
  Arg.(
    value
    & opt_all (timed_pid_conv "join") []
    & info [ "join" ] ~docv:"T:PID"
        ~doc:"Spawn PID as a joiner at T seconds, repeatable.")

let blackholes_term =
  Arg.(
    value
    & opt_all (timed_pair_conv "blackhole") []
    & info [ "blackhole" ] ~docv:"T:AT:FROM"
        ~doc:"At T, tell node AT to drop all traffic from FROM.")

let unblackholes_term =
  Arg.(
    value
    & opt_all (timed_pair_conv "unblackhole") []
    & info [ "unblackhole" ] ~docv:"T:AT:FROM"
        ~doc:"At T, lift a blackhole injected earlier.")

let transport_term =
  Arg.(
    value
    & opt transport_conv Gmp_live.Transport.Udp
    & info [ "transport" ] ~docv:"udp|tcp"
        ~doc:
          "Wire transport every node (and the control plane) speaks: UDP \
           datagrams or length-prefixed TCP streams.")

let bind_host_term =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "bind-host" ] ~docv:"HOST"
        ~doc:
          "Host every node binds and is addressed by (default loopback). \
           For clusters spanning hosts, run gmp-node directly with --bind \
           and --peers.")

let hb_interval_term =
  Arg.(
    value & opt float 0.5
    & info [ "hb-interval" ] ~docv:"SECS" ~doc:"Heartbeat interval.")

let hb_timeout_term =
  Arg.(
    value & opt float 2.5
    & info [ "hb-timeout" ] ~docv:"SECS" ~doc:"Heartbeat timeout.")

let rto_term =
  Arg.(
    value & opt float 0.25
    & info [ "rto" ] ~docv:"SECS"
        ~doc:"Initial ARQ retransmission timeout (nodes back off \
              exponentially from here).")

let netems_term =
  Arg.(
    value
    & opt_all netem_conv []
    & info [ "netem" ] ~docv:"T:AT:SPEC"
        ~doc:"At T seconds, retune fault injection at node AT ('all' = \
              every live node): SPEC is k=v pairs over \
              loss/latency/jitter/dup/reorder, plus peer=PID to target a \
              single incoming link. Repeatable.")

let loss_term =
  Arg.(
    value & opt float 0.0
    & info [ "loss" ] ~docv:"P"
        ~doc:"Spawn every node with this datagram loss probability.")

let latency_term =
  Arg.(
    value & opt float 0.0
    & info [ "latency" ] ~docv:"SECS"
        ~doc:"Spawn every node with this per-datagram delay.")

let jitter_term =
  Arg.(
    value & opt float 0.0
    & info [ "jitter" ] ~docv:"SECS"
        ~doc:"Delay becomes latency +/- up to this much (uniform).")

let dup_term =
  Arg.(
    value & opt float 0.0
    & info [ "dup" ] ~docv:"P" ~doc:"Datagram duplication probability.")

let reorder_term =
  Arg.(
    value & opt float 0.0
    & info [ "reorder" ] ~docv:"P"
        ~doc:"Probability a datagram is held back past its successors.")

let netem_seed_term =
  Arg.(
    value & opt int 0
    & info [ "netem-seed" ] ~docv:"SEED"
        ~doc:"Seed for the nodes' per-link fault RNG streams; rerunning \
              with the same seed replays the same per-link fault pattern.")

let dir_term =
  Arg.(
    value & opt (some string) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:"Directory for per-node event logs (default: a fresh /tmp dir).")

let node_bin_term =
  Arg.(
    value & opt (some string) None
    & info [ "node-bin" ] ~docv:"PATH"
        ~doc:"gmp-node binary (default: sibling of this executable).")

let json_term =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Machine-readable one-line JSON summary.")

let no_liveness_term =
  Arg.(
    value & flag
    & info [ "no-liveness" ]
        ~doc:"Check safety only (skip convergence and GMP-5).")

let keep_logs_term =
  Arg.(
    value & flag
    & info [ "keep-logs" ] ~doc:"Keep event logs even on a clean run.")

let verbose_term =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Node debug chatter.")

let cmd =
  let go n joiners run_for kills joins blackholes unblackholes netems
      transport bind_host hb_interval hb_timeout rto loss latency jitter dup
      reorder netem_seed dir node_bin json no_liveness keep_logs verbose =
    run_cluster n joiners run_for kills joins blackholes unblackholes netems
      transport bind_host hb_interval hb_timeout rto
      (loss, latency, jitter, dup, reorder)
      netem_seed dir node_bin json (not no_liveness) keep_logs verbose
  in
  Cmd.v
    (Cmd.info "gmp-cluster" ~version:"1.0.0"
       ~doc:
         "Run the GMP protocol as real processes over real sockets: spawn a \
          fleet of gmp-node daemons (UDP datagrams or framed TCP streams, \
          per --transport), inject SIGKILLs / joins / blackholes on \
          schedule, reassemble the per-node event logs and check \
          GMP-0..GMP-5 on the live trace.")
    Term.(
      const go $ n_term $ joiners_term $ run_for_term $ kills_term
      $ joins_term $ blackholes_term $ unblackholes_term $ netems_term
      $ transport_term $ bind_host_term $ hb_interval_term $ hb_timeout_term
      $ rto_term $ loss_term $ latency_term $ jitter_term $ dup_term
      $ reorder_term $ netem_seed_term $ dir_term $ node_bin_term $ json_term
      $ no_liveness_term $ keep_logs_term $ verbose_term)

let () = exit (Cmd.eval' cmd)
