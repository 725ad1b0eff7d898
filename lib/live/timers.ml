(* Wall-clock timers for the live node's poll loop, on the simulator's
   event queue: the queue's (deadline, insertion) order gives FIFO ties,
   and cancellation flips a [live] flag so dead entries are discarded as
   they surface. Single-threaded by construction - all callbacks run on
   the loop thread, so no locking. *)

module Q = Gmp_sim.Event_queue

type entry = { mutable live : bool; callback : unit -> unit }
type t = entry Q.t

let create () = Q.create ()

let schedule t ~at callback =
  let e = { live = true; callback } in
  Q.add t ~time:at e;
  e

let cancel e = e.live <- false

let rec drop_dead t =
  if (not (Q.is_empty t)) && not (Q.peek_exn t).live then begin
    ignore (Q.pop_exn t : entry);
    drop_dead t
  end

let next_deadline t =
  drop_dead t;
  Q.peek_time t

let fire_due t ~now =
  (* Snapshot the due set before running any callback: a callback that
     schedules a new entry at [<= now] (a capped-backoff retransmit at
     saturation, a zero-delay re-arm) must wait for the next call, or one
     such timer could starve the poll loop forever. Cancellations
     performed by earlier callbacks in the batch are still honoured via
     the [live] check at fire time. *)
  let rec collect due =
    drop_dead t;
    if (not (Q.is_empty t)) && Q.peek_time_exn t <= now then
      collect (Q.pop_exn t :: due)
    else List.rev due
  in
  List.fold_left
    (fun fired e ->
      if e.live then begin
        e.live <- false;
        e.callback ();
        fired + 1
      end
      else fired)
    0 (collect [])

let pending t =
  let n = ref 0 in
  Q.iter_entries t (fun ~time:_ ~seq:_ e -> if e.live then incr n);
  !n
