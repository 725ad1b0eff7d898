(* Workloads live-udp and live-tcp-lossy: eight gmp-node processes on
   loopback under gmp-cluster, driven through a seeded join/kill cycle.

   Each cycle admits a fresh joiner and then SIGKILLs a junior, so the view
   stays at eight or nine members and a majority always survives. The last
   cycle kills the coordinator p0 and is not followed by a join, because
   gmp-cluster hands joiners the initial members as contacts, p0 first, and
   a joiner retries the next contact only after a two-second pause. The
   coordinator dies only once its last join has landed everywhere: killed
   mid-commit, it leaves the joiner in some views and not in others until
   the reconfiguration, and the joiner, hearing no heartbeats from members
   that do not know it yet, suspects them.

   Everything about the nodes is measured from outside: CPU and peak memory
   from /proc, set-up and latency from their event logs through [Trace_io],
   message counts from the metrics lines they write. *)

open Gmp_base
open Gmp_core
module J = Json

type shape = {
  transport : string;
  hb_interval : float;
  hb_timeout : float;
  loss : float;
  latency : float;
  jitter : float;
  period : float;  (** one join/kill cycle *)
  kill_after_join : float;
  coordinator_after_join : float;  (** the same, for the final coordinator kill *)
  tail : float;  (** room after the last kill for it to land *)
}

let nodes = 8
let first_cycle = 1.0

(* Loss-free UDP at a 0.05/0.5 s heartbeat: codec, datagram transport,
   loss-free ARQ, timers and the poll loop. *)
let udp =
  { transport = "udp"; hb_interval = 0.05; hb_timeout = 0.5; loss = 0.0;
    latency = 0.0; jitter = 0.0; period = 1.2; kill_after_join = 0.3;
    coordinator_after_join = 0.3; tail = 1.5 }

(* TCP at the default 0.5/2.5 s heartbeat under 3% loss and 20+-10 ms
   latency: ARQ retransmission and backoff, stream framing and reconnects
   toward killed peers. At 5% loss the final view came out one member
   short and at 10% a live node was excluded, so the loss stays at 3%. The
   reconfiguration after the coordinator's crash took up to 3.8 s. *)
let tcp_lossy =
  { transport = "tcp"; hb_interval = 0.5; hb_timeout = 2.5; loss = 0.03;
    latency = 0.02; jitter = 0.01; period = 4.5; kill_after_join = 0.6;
    coordinator_after_join = 2.0; tail = 5.0 }

type schedule = {
  kills : (float * Pid.t) list;
  joins : (float * Pid.t) list;
}

let schedule shape ~seed ~window =
  let rng = Random.State.make [| seed; 0x6c76 |] in
  let jitter () = Random.State.float rng 0.1 in
  let initial = Pid.group nodes in
  let cycles =
    int_of_float
      ((window -. shape.tail -. first_cycle -. shape.coordinator_after_join)
      /. shape.period)
    + 1
  in
  let rec go k current kills joins =
    if k = cycles then { kills = List.rev kills; joins = List.rev joins }
    else begin
      let start = first_cycle +. (shape.period *. float_of_int k) in
      let joiner = Pid.make (nodes + k) in
      let last = k = cycles - 1 in
      let victim =
        if last then Pid.make 0
        else
          (* any member but the coordinator and the joiner just admitted *)
          let candidates =
            List.filter (fun p -> not (Pid.equal p (Pid.make 0))) current
          in
          List.nth candidates (Random.State.int rng (List.length candidates))
      in
      let t_join = start +. jitter () in
      let gap = if last then shape.coordinator_after_join else shape.kill_after_join in
      let t_kill = start +. gap +. jitter () in
      go (k + 1)
        (List.filter (fun p -> not (Pid.equal p victim)) current @ [ joiner ])
        ((t_kill, victim) :: kills)
        ((t_join, joiner) :: joins)
    end
  in
  go 0 initial [] []

(* ---- /proc sampling ---- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let s = try Some (In_channel.input_all ic) with Sys_error _ -> None in
    close_in_noerr ic;
    s

let children ospid =
  match read_file (Printf.sprintf "/proc/%d/task/%d/children" ospid ospid) with
  | None -> []
  | Some s ->
    List.filter_map int_of_string_opt (String.split_on_char ' ' (String.trim s))

(* Nanoseconds on CPU since the process started (first schedstat field). *)
let cpu_ns ospid =
  match read_file (Printf.sprintf "/proc/%d/schedstat" ospid) with
  | None -> None
  | Some s -> (
    match String.split_on_char ' ' s with
    | ns :: _ -> int_of_string_opt ns
    | [] -> None)

let peak_rss_kb ospid =
  match read_file (Printf.sprintf "/proc/%d/status" ospid) with
  | None -> None
  | Some s ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> int_of_string_opt kb
          | [] -> None)
        | _ -> None)
      (String.split_on_char '\n' s)

let cmdline ospid =
  Option.map (String.split_on_char '\000')
    (read_file (Printf.sprintf "/proc/%d/cmdline" ospid))

let node_name args =
  let rec find = function
    | "--self" :: p :: _ -> Pid.of_string p
    | _ :: rest -> find rest
    | [] -> None
  in
  find args

(* The port gmp-cluster gave every process of the run, itself included:
   each node is told its own ([--bind HOST:PORT]) and every other one's
   ([--peer PID:HOST:PORT]), joiners still to come among them. *)
let port_map args =
  let port_of s =
    Option.bind (String.rindex_opt s ':') (fun i ->
        int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)))
  in
  let rec go self acc = function
    | "--self" :: p :: rest -> go (Pid.of_string p) acc rest
    | "--bind" :: b :: rest -> (
      match (self, port_of b) with
      | Some p, Some port -> go self ((p, port) :: acc) rest
      | _ -> go self acc rest)
    | "--peer" :: spec :: rest -> (
      match (String.index_opt spec ':', port_of spec) with
      | Some i, Some port -> (
        match Pid.of_string (String.sub spec 0 i) with
        | Some p -> go self ((p, port) :: acc) rest
        | None -> go self acc rest)
      | _ -> go self acc rest)
    | _ :: rest -> go self acc rest
    | [] -> acc
  in
  go None [] args

(* Distinct processes handed one port, as "p3,p12:41234". *)
let shared_ports map =
  let by_port = Hashtbl.create 32 in
  List.iter
    (fun (p, port) ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_port port) in
      if not (List.exists (Pid.equal p) l) then Hashtbl.replace by_port port (p :: l))
    map;
  Hashtbl.fold
    (fun port l acc ->
      if List.length l > 1 then
        Printf.sprintf "%s:%d"
          (String.concat "," (List.map Pid.to_string (List.sort Pid.compare l)))
          port
        :: acc
      else acc)
    by_port []
  |> List.sort compare

type sampled = {
  pid : Pid.t;
  first_t : float;
  mutable last_t : float;
  mutable cpu : int;  (** ns, cumulative since the process started *)
  mutable rss_kb : int;
}

(* ---- one cluster run ---- *)

type run = {
  launch : float;  (** wall instant gmp-cluster was started *)
  exit_code : int;
  summary : J.t option;  (** gmp-cluster's --json line *)
  sampled : sampled list;
  kill_times : (Pid.t * float) list;
  reference : float list;  (** [Measure.reference_cpu] samples in the window *)
  shared_ports : string list;
      (** ports gmp-cluster handed to more than one process, which then
          cannot all receive: the run does not measure the workload *)
}

let cluster_args ~bin_dir ~dir shape ~seed ~window sched =
  let f = Printf.sprintf "%.17g" in
  [ Filename.concat bin_dir "gmp_cluster.exe";
    "--nodes"; string_of_int nodes; "--run-for"; f window;
    "--transport"; shape.transport;
    "--hb-interval"; f shape.hb_interval; "--hb-timeout"; f shape.hb_timeout;
    "--loss"; f shape.loss; "--latency"; f shape.latency;
    "--jitter"; f shape.jitter; "--netem-seed"; string_of_int seed;
    "--node-bin"; Filename.concat bin_dir "gmp_node.exe";
    "--dir"; dir; "--keep-logs"; "--json" ]
  @ List.concat_map
      (fun (t, p) -> [ "--kill"; Printf.sprintf "%s:%s" (f t) (Pid.to_string p) ])
      sched.kills
  @ List.concat_map
      (fun (t, p) -> [ "--join"; Printf.sprintf "%s:%s" (f t) (Pid.to_string p) ])
      sched.joins

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Runs gmp-cluster to completion. CPU and memory are sampled every 50 ms
   until the orchestrated window closes, so the cluster's own log
   reassembly and checking afterwards are not charged to the nodes. A
   scheduled victim's kill instant is when its /proc entry vanishes
   (gmp-cluster reaps right after the SIGKILL): the midpoint between the
   last 2 ms poll that saw it and the first that did not. Every 0.25 s of
   the window, except near a scheduled kill, the reference computation is
   timed, so the nodes' CPU can be set against the host's speed while they
   ran. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let run_cluster ~bin_dir ~dir shape ~seed ~window sched =
  rm_rf dir;
  mkdir_p dir;
  let args = cluster_args ~bin_dir ~dir shape ~seed ~window sched in
  let out =
    Unix.openfile (Filename.concat dir "cluster.json")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let launch = Unix.gettimeofday () in
  let cpid =
    Unix.create_process (List.hd args) (Array.of_list args) null out Unix.stderr
  in
  Unix.close null;
  Unix.close out;
  let window_end = launch +. window in
  let table : (int, sampled) Hashtbl.t = Hashtbl.create 32 in
  let kill_times = ref [] and ports = ref [] in
  let armed = ref sched.kills in
  let next_sample = ref 0.0 and last_check = ref launch in
  let next_reference = ref 0.0 and reference = ref [] in
  let rec loop status =
    match status with
    | Some code -> code
    | None ->
      let now = Unix.gettimeofday () in
      if now <= window_end && now >= !next_sample then begin
        next_sample := now +. 0.05;
        List.iter
          (fun ospid ->
            match (Hashtbl.find_opt table ospid, cpu_ns ospid) with
            | _, None -> ()
            | Some s, Some cpu ->
              s.last_t <- now;
              s.cpu <- cpu;
              Option.iter (fun kb -> s.rss_kb <- max s.rss_kb kb) (peak_rss_kb ospid)
            | None, Some cpu -> (
              let args = Option.value ~default:[] (cmdline ospid) in
              ports := port_map args @ !ports;
              match node_name args with
              | None -> ()
              | Some pid ->
                Hashtbl.replace table ospid
                  { pid; first_t = now; last_t = now; cpu;
                    rss_kb = Option.value ~default:0 (peak_rss_kb ospid) }))
          (children cpid)
      end;
      if now <= window_end && now >= !next_reference
         && not (List.exists (fun (t, _) -> Float.abs (now -. launch -. t) < 0.2) !armed)
      then begin
        next_reference := now +. 0.25;
        reference := Measure.reference_cpu () :: !reference
      end;
      let checked = Unix.gettimeofday () in
      armed :=
        List.filter
          (fun (t, victim) ->
            if now < launch +. t -. 0.2 then true
            else
              match
                Hashtbl.fold
                  (fun ospid s acc -> if Pid.equal s.pid victim then Some ospid else acc)
                  table None
              with
              | None -> true
              | Some ospid ->
                if Sys.file_exists (Printf.sprintf "/proc/%d" ospid) then true
                else begin
                  kill_times := (victim, (!last_check +. checked) /. 2.0) :: !kill_times;
                  false
                end)
          !armed;
      last_check := checked;
      Unix.sleepf 0.002;
      loop
        (match Unix.waitpid [ Unix.WNOHANG ] cpid with
        | 0, _ -> None
        | _, Unix.WEXITED c -> Some c
        | _, _ -> Some 255)
  in
  let exit_code = loop None in
  let summary =
    match read_file (Filename.concat dir "cluster.json") with
    | None -> None
    | Some s -> (
      match J.of_string (String.trim s) with Ok j -> Some j | Error _ -> None)
  in
  { launch; exit_code; summary;
    sampled = Hashtbl.fold (fun _ s acc -> s :: acc) table [];
    kill_times = !kill_times; reference = !reference; shared_ports = shared_ports !ports }

(* ---- reading a finished run ---- *)

let log_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let events dir =
  List.map
    (fun f ->
      match Gmp_live.Trace_io.read_file f with
      | Ok evs -> evs
      | Error m -> failwith (Printf.sprintf "unreadable log %s: %s" f m))
    (log_files dir)

(* From spawn until every initial node has logged its first install. *)
let setup_s run per_node =
  let initial = Pid.group nodes in
  let firsts =
    List.filter_map
      (fun evs ->
        List.find_map
          (fun (e : Trace.event) ->
            match e.kind with
            | Trace.Installed _ when Derive.mem e.owner initial -> Some e.time
            | _ -> None)
          evs)
      per_node
  in
  if List.length firsts = nodes then
    Some (List.fold_left Float.max neg_infinity firsts -. run.launch)
  else None

let summary_field run name = Option.bind run.summary (J.member name)

let pid_list j =
  Option.value ~default:[]
    (Option.map
       (List.filter_map (fun p -> Option.bind (J.to_string_opt p) Pid.of_string))
       (Option.bind j J.to_list_opt))

(* (pid, version, members) of every survivor holding a view. *)
let survivor_views run =
  List.filter_map
    (fun v ->
      match
        ( Option.bind (Option.bind (J.member "pid" v) J.to_string_opt) Pid.of_string,
          Option.bind (J.member "version" v) J.to_int_opt,
          J.member "view" v )
      with
      | Some p, Some ver, Some view -> Some (p, ver, pid_list (Some view))
      | _ -> None)
    (Option.value ~default:[]
       (Option.bind (summary_field run "surviving_views") J.to_list_opt))

let final_version run =
  List.fold_left (fun acc (_, ver, _) -> max acc ver) 0 (survivor_views run)

(* A counter summed over the nodes' registries, as gmp-cluster merged them:
   each node's final metrics line, or a killed node's last periodic one. *)
let counter run name =
  Option.value ~default:0
    (Option.bind (summary_field run "metrics") (fun m ->
         Option.bind (J.member name m) J.to_int_opt))
