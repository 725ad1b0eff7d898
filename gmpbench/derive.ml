(* Post-run derivations shared by the simulated and the live workloads:
   detection-latency samples and the fate of every injected change.

   The latency definitions are those of [Gmp_core.Latency], re-applied here
   so the benchmark keeps every raw sample instead of the registry's
   bucketed digest (whose quantiles are bucket edges). [check_counts]
   cross-checks the sample counts against [Gmp_core.Latency.observe], so the
   two definitions cannot drift apart silently. *)

open Gmp_base
open Gmp_core

type samples = {
  crash_to_view : float list;
      (** per (crash, member whose installed view held the victim at the
          crash instant): time until that member installs a view without it *)
  crash_to_suspicion : float list;
      (** per crash: time until the first [Faulty] event against it *)
  join_to_installed : float list;
      (** per admitted joiner: earliest [Operating] announcing it to its own
          first install *)
}

(* In-trace [Crashed] events win over the caller's kill instants. *)
let crash_times ~crashes trace =
  let tbl = Hashtbl.create 8 in
  Trace.iter trace (fun (e : Trace.event) ->
      match e.kind with
      | Trace.Crashed -> (
        match Hashtbl.find_opt tbl e.owner with
        | Some t when t <= e.time -> ()
        | _ -> Hashtbl.replace tbl e.owner e.time)
      | _ -> ());
  List.iter
    (fun (p, t) -> if not (Hashtbl.mem tbl p) then Hashtbl.replace tbl p t)
    crashes;
  Hashtbl.fold (fun p t acc -> (p, t) :: acc) tbl []

let earliest_operating trace =
  let tbl = Hashtbl.create 8 in
  Trace.iter trace (fun (e : Trace.event) ->
      match e.kind with
      | Trace.Operating q -> (
        match Hashtbl.find_opt tbl q with
        | Some t when t <= e.time -> ()
        | _ -> Hashtbl.replace tbl q e.time)
      | _ -> ());
  Hashtbl.fold (fun p t acc -> (p, t) :: acc) tbl []

let mem p l = List.exists (Pid.equal p) l

let samples ?(crashes = []) trace =
  let installs = Trace.installs trace in
  let detections = Trace.detections trace in
  let owners = Trace.owners trace in
  let crash_times = crash_times ~crashes trace in
  let crash_to_suspicion =
    List.filter_map
      (fun (q, t0) ->
        List.fold_left
          (fun acc (observer, suspect, (e : Trace.event)) ->
            if Pid.equal suspect q && (not (Pid.equal observer q)) && e.time >= t0
            then
              match acc with
              | Some t when t <= e.time -> acc
              | _ -> Some e.time
            else acc)
          None detections
        |> Option.map (fun t -> t -. t0))
      crash_times
  in
  let crash_to_view =
    List.concat_map
      (fun (q, t0) ->
        List.filter_map
          (fun o ->
            if Pid.equal o q then None
            else begin
              let before = ref None and after = ref None in
              List.iter
                (fun ((e : Trace.event), _ver, members) ->
                  if Pid.equal e.owner o then
                    if e.time <= t0 then before := Some members
                    else if !after = None && not (mem q members) then
                      after := Some e.time)
                installs;
              match (!before, !after) with
              | Some held, Some t when mem q held -> Some (t -. t0)
              | _ -> None
            end)
          owners)
      crash_times
  in
  let join_to_installed =
    List.filter_map
      (fun (q, t0) ->
        List.fold_left
          (fun acc ((e : Trace.event), _, _) ->
            if Pid.equal e.owner q && e.time >= t0 then
              match acc with
              | Some t when t <= e.time -> acc
              | _ -> Some e.time
            else acc)
          None installs
        |> Option.map (fun t -> t -. t0))
      (earliest_operating trace)
  in
  { crash_to_view; crash_to_suspicion; join_to_installed }

(* [Error] naming the first family whose sample count differs from the
   library's own derivation. *)
let check_counts ?crashes trace s =
  let module Obs = Gmp_obs.Obs in
  let reg = Obs.create () in
  Latency.observe ?crashes reg trace;
  let snap = Obs.snapshot reg in
  let count name =
    match Obs.Snapshot.find snap name with
    | Some (Obs.Snapshot.Histogram h) -> Obs.Snapshot.count h
    | _ -> 0
  in
  List.fold_left
    (fun acc (name, l) ->
      match acc with
      | Error _ -> acc
      | Ok () ->
        if count name = List.length l then Ok ()
        else
          Error
            (Printf.sprintf "%s: %d raw samples, library derived %d" name
               (List.length l) (count name)))
    (Ok ())
    [ (Latency.crash_to_view_installed, s.crash_to_view);
      (Latency.crash_to_first_suspicion, s.crash_to_suspicion);
      (Latency.join_to_installed, s.join_to_installed) ]

(* ---- the fate of every injected change ----

   A change is attempted per injected crash and per injected join. A crash
   lands when the victim is absent from every survivor's final view; a join
   lands when the joiner is in every survivor's final view, or, for a joiner
   killed later, when it was in some installed view. A process that
   was never killed, was a member at some point, and is not a survivor
   holding the common final view was falsely excluded. Ground truth is the
   schedule (sim) or the kill list (live), because the checker holds
   vacuously once every member has quit. *)

type fate = {
  attempted : int;
  missing : Pid.t list;  (** whose change is absent from a survivor's view *)
  falsely_excluded : Pid.t list;
}

let failed f = List.length f.missing + List.length f.falsely_excluded

let ever_members trace =
  List.sort_uniq Pid.compare
    (List.concat_map (fun (_, _, members) -> members) (Trace.installs trace))

let judge ~initial ~killed ~joiners ~ever_members ~survivor_views =
  let views = List.map snd survivor_views in
  let survivors = List.map fst survivor_views in
  let in_all p = views <> [] && List.for_all (mem p) views in
  let in_none p = List.for_all (fun v -> not (mem p v)) views in
  (* a joiner killed later must have been admitted before it was killed *)
  let join_landed p = if mem p killed then mem p ever_members else in_all p in
  let missing =
    List.filter (fun p -> not (in_none p)) killed
    @ List.filter (fun p -> not (join_landed p)) joiners
  in
  let falsely_excluded =
    List.filter
      (fun p ->
        (not (mem p killed)) && mem p ever_members
        && not (mem p survivors && in_all p))
      (initial @ joiners)
  in
  { attempted = List.length killed + List.length joiners; missing;
    falsely_excluded }

let describe f =
  let pids l = String.concat "," (List.map Pid.to_string l) in
  Printf.sprintf "of %d changes, missing from a final view: [%s]; falsely excluded: [%s]"
    f.attempted (pids f.missing) (pids f.falsely_excluded)
