(* Structural diff of two BENCH_scale.json files, ignoring wall-clock.

   The bench's deterministic outputs (event counts, message counts, trace
   lengths, allocation) must be bit-identical no matter how many worker
   domains ran the cells; only timings and the job count itself may vary.
   CI runs the quick bench twice with different --jobs values and feeds
   both files here: any difference outside the ignored keys is a
   determinism bug and exits 1.

   Run: dune exec bench/json_diff.exe A.json B.json *)

module J = Gmp_base.Json

(* Every key whose value is (or is derived from) a wall-clock reading, plus
   the job count and the snapshot-engine switch, which differ between the
   two compared runs by design. *)
let ignored =
  [ "wall_s"; "ns_per_event"; "checker_s"; "cells_wall_s"; "pool_wall_s";
    "parallel_speedup"; "speedup_vs_pr1"; "indexed_s"; "seed_s"; "reference_s";
    "speedup_vs_seed"; "speedup_vs_reference"; "executions_per_s";
    "distinct_per_s"; "speedup_vs_replay"; "jobs"; "snapshots" ]

let rec strip (j : J.t) : J.t =
  match j with
  | J.Obj fields ->
    J.Obj
      (List.filter_map
         (fun (k, v) ->
           if List.mem k ignored then None else Some (k, strip v))
         fields)
  | J.List items -> J.List (List.map strip items)
  | other -> other

(* Report the first differing path so drift is actionable, not just fatal. *)
let rec diff path (a : J.t) (b : J.t) =
  match (a, b) with
  | J.Obj fa, J.Obj fb ->
    let keys l = List.map fst l in
    if keys fa <> keys fb then
      Some (Printf.sprintf "%s: field sets differ" path)
    else
      List.fold_left2
        (fun acc (k, va) (_, vb) ->
          match acc with
          | Some _ -> acc
          | None -> diff (path ^ "." ^ k) va vb)
        None fa fb
  | J.List la, J.List lb ->
    if List.length la <> List.length lb then
      Some
        (Printf.sprintf "%s: list lengths differ (%d vs %d)" path
           (List.length la) (List.length lb))
    else
      List.fold_left
        (fun (i, acc) (va, vb) ->
          match acc with
          | Some _ -> (i + 1, acc)
          | None -> (i + 1, diff (Printf.sprintf "%s[%d]" path i) va vb))
        (0, None)
        (List.combine la lb)
      |> snd
  | _ ->
    if a = b then None
    else
      Some
        (Printf.sprintf "%s: %s vs %s" path (J.to_compact_string a)
           (J.to_compact_string b))

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let raw = really_input_string ic len in
  close_in ic;
  match J.of_string raw with
  | Ok j -> j
  | Error e ->
    Printf.eprintf "json_diff: %s: parse error: %s\n" path e;
    exit 2

let () =
  match Sys.argv with
  | [| _; a; b |] -> (
    match diff "$" (strip (load a)) (strip (load b)) with
    | None -> Printf.printf "identical modulo wall-clock fields\n"
    | Some where ->
      Printf.printf "DIFFERS at %s\n" where;
      exit 1)
  | _ ->
    Printf.eprintf "usage: json_diff A.json B.json\n";
    exit 2
