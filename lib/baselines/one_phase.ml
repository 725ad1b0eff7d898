(* One-phase membership baseline (Claim 7.1).

   The coordinator broadcasts removals directly; receivers apply them
   immediately, with no acknowledgement round. A process that believes all
   higher-ranked processes faulty takes over and broadcasts its own
   removals. The paper proves this cannot solve GMP when the coordinator can
   fail: with Proc partitioned into R and S, r in R suspecting Mgr and Mgr in
   S suspecting r, R installs Proc - {Mgr} while S installs Proc - {r},
   violating GMP-3. The bench reproduces exactly that run and feeds the trace
   to the same Checker as the real protocol. *)

open Gmp_base
module Runtime = Gmp_runtime.Runtime
module Trace = Gmp_core.Trace
module View = Gmp_core.View

type msg = Removal of Pid.t (* the coordinator's one-phase commit *)

let cat_commit = Gmp_platform.Stats.intern "commit"

type node = {
  handle : msg Runtime.node;
  trace : Trace.t;
  mutable view : View.t;
  mutable ver : int;
  mutable faulty : Pid.Set.t;
}

type t = {
  runtime : msg Runtime.t;
  trace : Trace.t;
  initial : Pid.t list;
  mutable nodes : node Pid.Map.t;
}

let record node kind =
  let index, vc = Runtime.local_event node.handle in
  Trace.record node.trace
    ~owner:(Runtime.pid node.handle)
    ~index
    ~time:(Runtime.node_now node.handle)
    ~vc kind

let apply_removal node target =
  if View.mem node.view target then begin
    node.view <- View.remove node.view target;
    node.ver <- node.ver + 1;
    record node (Trace.Removed { target; new_ver = node.ver });
    record node
      (Trace.Installed
         { ver = node.ver; view_members = View.members node.view })
  end

let i_am_coordinator node =
  let me = Runtime.pid node.handle in
  View.mem node.view me
  && List.for_all
       (fun q -> Pid.Set.mem q node.faulty)
       (View.higher_ranked node.view me)

(* faultyp(q): one-phase reaction - if I am now the coordinator, broadcast
   the removal at once; otherwise just remember the suspicion. *)
let suspect node q =
  let me = Runtime.pid node.handle in
  if (not (Pid.equal q me)) && not (Pid.Set.mem q node.faulty) then begin
    node.faulty <- Pid.Set.add q node.faulty;
    Runtime.disconnect_from node.handle ~from:q;
    record node (Trace.Faulty q);
    if i_am_coordinator node then begin
      let victims =
        List.filter (fun p -> Pid.Set.mem p node.faulty) (View.members node.view)
      in
      List.iter
        (fun victim ->
          apply_removal node victim;
          record node (Trace.Committed { ver = node.ver; commit_kind = `Update });
          Runtime.broadcast node.handle ~dsts:(View.members node.view)
            ~category:cat_commit (Removal victim))
        victims
    end
  end

let dispatch node ~src:_ (Removal target) =
  let me = Runtime.pid node.handle in
  if Pid.equal target me then begin
    record node (Trace.Quit "one-phase exclusion");
    Runtime.crash node.handle
  end
  else begin
    if not (Pid.Set.mem target node.faulty) then begin
      node.faulty <- Pid.Set.add target node.faulty;
      record node (Trace.Faulty target)
    end;
    apply_removal node target
  end

let create ?delay ?(seed = 1) ~n () =
  let runtime = Runtime.create ?delay ~seed () in
  let trace = Trace.create () in
  let initial = Pid.group n in
  let t = { runtime; trace; initial; nodes = Pid.Map.empty } in
  List.iter
    (fun pid ->
      let handle = Runtime.spawn runtime pid in
      let node =
        { handle;
          trace;
          view = View.initial initial;
          ver = 0;
          faulty = Pid.Set.empty }
      in
      Runtime.set_receiver handle (fun ~src msg -> dispatch node ~src msg);
      t.nodes <- Pid.Map.add pid node t.nodes;
      record node (Trace.Installed { ver = 0; view_members = initial }))
    initial;
  t


let trace t = t.trace
let initial t = t.initial

let node t pid =
  match Pid.Map.find_opt pid t.nodes with
  | Some n -> n
  | None -> invalid_arg "One_phase.node: unknown pid"

let at t time f =
  ignore
    (Gmp_sim.Engine.schedule_at (Runtime.engine t.runtime) ~time f
      : Gmp_sim.Engine.handle)

let suspect_at t time ~observer ~target =
  at t time (fun () -> suspect (node t observer) target)

let partition_at t time groups =
  at t time (fun () -> Gmp_net.Network.partition (Runtime.network t.runtime) groups)

let run ?(until = 200.0) t = Runtime.run ~until t.runtime

let views t =
  List.map
    (fun (pid, node) -> (pid, node.ver, View.members node.view))
    (Pid.Map.bindings t.nodes)
