(* Symmetric membership baseline, in the style of Bruso [5].

   No coordinator: every process, upon suspecting q, broadcasts its
   suspicion; every receiver adopts the suspicion and broadcasts its own
   (once). A process removes q from its local view when every other member
   of its view has voted q out. Every exclusion therefore costs about
   (n-1)^2 messages - the "order of magnitude more messages in all
   situations" the paper charges symmetric solutions with (§1, §8).

   Good enough to reproduce the cost comparison; not a complete protocol
   (no join, no invisible-commit recovery). *)

open Gmp_base
module Runtime = Gmp_runtime.Runtime
module Trace = Gmp_core.Trace
module View = Gmp_core.View

type msg = Suspect of Pid.t

let cat_suspect = Gmp_platform.Stats.intern "suspect"

type node = {
  handle : msg Runtime.node;
  trace : Trace.t;
  mutable view : View.t;
  mutable ver : int;
  mutable votes : Pid.Set.t Pid.Map.t; (* target -> voters (incl. self) *)
  mutable voted : Pid.Set.t; (* targets this node has broadcast about *)
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

let votes_for node target =
  match Pid.Map.find_opt target node.votes with
  | None -> Pid.Set.empty
  | Some s -> s

let maybe_remove node target =
  if View.mem node.view target then begin
    let voters = votes_for node target in
    let me = Runtime.pid node.handle in
    let everyone_voted =
      List.for_all
        (fun p ->
          Pid.equal p target || Pid.equal p me || Pid.Set.mem p voters
          (* a process this node itself suspects cannot be expected to vote *)
          || Pid.Set.mem p node.voted)
        (View.members node.view)
    in
    if everyone_voted then begin
      node.view <- View.remove node.view target;
      node.ver <- node.ver + 1;
      record node (Trace.Removed { target; new_ver = node.ver });
      record node
        (Trace.Installed
           { ver = node.ver; view_members = View.members node.view })
    end
  end

let rec vote node target ~voter =
  let me = Runtime.pid node.handle in
  if View.mem node.view target && not (Pid.equal target me) then begin
    node.votes <-
      Pid.Map.add target (Pid.Set.add voter (votes_for node target)) node.votes;
    (* Adopt and propagate once (all-to-all flooding). *)
    if not (Pid.Set.mem target node.voted) then begin
      node.voted <- Pid.Set.add target node.voted;
      node.votes <-
        Pid.Map.add target (Pid.Set.add me (votes_for node target)) node.votes;
      record node (Trace.Faulty target);
      Runtime.broadcast node.handle ~dsts:(View.members node.view)
        ~category:cat_suspect (Suspect target)
    end;
    maybe_remove node target;
    (* A new vote can complete other pending removals too. *)
    Pid.Map.iter (fun other _ -> maybe_remove node other) node.votes
  end

and dispatch node ~src (Suspect target) = vote node target ~voter:src

let suspect node target =
  vote node target ~voter:(Runtime.pid node.handle)

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
          votes = Pid.Map.empty;
          voted = Pid.Set.empty }
      in
      Runtime.set_receiver handle (fun ~src msg -> dispatch node ~src msg);
      t.nodes <- Pid.Map.add pid node t.nodes;
      record node (Trace.Installed { ver = 0; view_members = initial }))
    initial;
  t


let trace t = t.trace
let stats t = Runtime.stats t.runtime

let node t pid =
  match Pid.Map.find_opt pid t.nodes with
  | Some n -> n
  | None -> invalid_arg "Symmetric.node: unknown pid"

let at t time f =
  ignore
    (Gmp_sim.Engine.schedule_at (Runtime.engine t.runtime) ~time f
      : Gmp_sim.Engine.handle)

let crash_at t time pid =
  at t time (fun () -> Runtime.crash (node t pid).handle)

let suspect_at t time ~observer ~target =
  at t time (fun () -> suspect (node t observer) target)

let run ?(until = 200.0) t = Runtime.run ~until t.runtime

let views t =
  List.filter_map
    (fun (pid, node) ->
      if Runtime.alive node.handle then
        Some (pid, node.ver, View.members node.view)
      else None)
    (Pid.Map.bindings t.nodes)

let messages t = Gmp_platform.Stats.sent (stats t) ~category:"suspect"
