(* Workload explore-assurance: [Explore.assurance] (n=3, one crash and two
   spurious suspicions) run to exhaustion at a fixed depth with the default
   single-domain engine, as [gmp-sim explore] runs it.

   Here the member state machine, [Group.checkpoint]/[restore]/
   [fingerprint], sleep-set and state pruning and the incremental checker
   do the work; at n=3 the n-wide heartbeat and vector-clock costs are
   negligible, so a large-n simulator optimisation should not move it. The
   model's seed only feeds constant delays, so the search is the same for
   every seed. *)

module Explore = Gmp_explore.Explore
module Group = Gmp_runtime.Group

let depth = 18

(* Far above the 393,618 executions depth 18 takes: reaching it means the
   bound was not exhausted, which fails the run. *)
let budget = 2_000_000

let model ~seed = Explore.assurance ~seed ()

let root_world (m : Explore.model) =
  Group.create ~config:m.Explore.config ~delay:m.Explore.delay ~seed:m.Explore.seed
    ~n:m.Explore.n ()

(* Set-up is what precedes the search: building the model and the root
   world the explorer starts every round from. *)
let setup ~seed = ignore (root_world (model ~seed) : Group.t)

type rep = {
  wall : float;
  cpu : float;
  words : float;
  outcome : Explore.outcome;
}

let rep ~seed =
  let m = model ~seed in
  let w0 = Measure.minor_words () in
  let outcome, wall, cpu =
    Measure.timed (fun () -> Explore.explore m ~depth ~budget)
  in
  { wall; cpu; words = Measure.minor_words () -. w0; outcome }

let errors r =
  let s = r.outcome.Explore.stats in
  (match r.outcome.Explore.counterexample with
  | None -> []
  | Some cx ->
    [ Fmt.str "counterexample after %d choices" (List.length cx.Explore.cx_choices) ])
  @
  if s.Explore.executions >= budget || s.Explore.max_depth < depth then
    [ Printf.sprintf "depth %d not exhausted within %d executions" depth budget ]
  else []

(* Unit costs of the snapshot layer on the model's own world, taken mid-run
   so the event heap, channels and trace are populated. *)
let snapshot_costs ~seed =
  let g = root_world (model ~seed) in
  Group.crash_at g 5.0 (Gmp_base.Pid.make 0);
  Group.run ~until:12.0 g;
  let per_op_us k f =
    let (), wall, _ = Measure.timed (fun () -> for _ = 1 to k do f () done) in
    wall /. float_of_int k *. 1e6
  in
  let k = 20_000 in
  let cp = Group.checkpoint g in
  let checkpoint_us = per_op_us k (fun () -> ignore (Group.checkpoint g : Group.checkpoint)) in
  let restore_us = per_op_us k (fun () -> Group.restore g cp) in
  let fingerprint_us = per_op_us k (fun () -> ignore (Group.fingerprint g : int)) in
  (checkpoint_us, restore_us, fingerprint_us)
