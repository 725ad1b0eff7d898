(* Test oracle: the live node's original timer heap, kept verbatim so the
   Event_queue-based Timers can be checked against it. *)

(* A wall-clock timer wheel for the live node's poll loop.

   A binary min-heap of (deadline, sequence) pairs; cancellation flips a
   [live] flag and the heap lazily discards dead entries as they surface.
   The poll loop asks [next_deadline] to bound its select timeout and calls
   [fire_due] after every wakeup. Single-threaded by construction - all
   callbacks run on the loop thread, so no locking. *)

type entry = {
  at : float;
  seq : int; (* insertion order breaks deadline ties, FIFO *)
  mutable live : bool;
  callback : unit -> unit;
}

type t = {
  mutable heap : entry array;
  mutable size : int;
  mutable next_seq : int;
}

let dummy = { at = 0.; seq = 0; live = false; callback = ignore }
let create () = { heap = Array.make 32 dummy; size = 0; next_seq = 0 }

let before a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * Array.length t.heap) dummy in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end

let schedule t ~at callback =
  let e = { at; seq = t.next_seq; live = true; callback } in
  t.next_seq <- t.next_seq + 1;
  grow t;
  t.heap.(t.size) <- e;
  t.size <- t.size + 1;
  sift_up t (t.size - 1);
  e

let cancel e = e.live <- false

let pop t =
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  t.heap.(t.size) <- dummy;
  sift_down t 0;
  top

let rec drop_dead t =
  if t.size > 0 && not t.heap.(0).live then begin
    ignore (pop t : entry);
    drop_dead t
  end

let next_deadline t =
  drop_dead t;
  if t.size = 0 then None else Some t.heap.(0).at

let fire_due t ~now =
  (* Snapshot the due set before running any callback: a callback that
     schedules a new entry at [<= now] (a capped-backoff retransmit at
     saturation, a zero-delay re-arm) must wait for the next call, or one
     such timer could starve the poll loop forever. Collecting first and
     firing second gives exactly the entries due at entry; cancellations
     performed by earlier callbacks in the batch are still honoured via the
     [live] check at fire time. *)
  let due = ref [] in
  let rec collect () =
    drop_dead t;
    if t.size > 0 && t.heap.(0).at <= now then begin
      let e = pop t in
      if e.live then due := e :: !due;
      collect ()
    end
  in
  collect ();
  let fired = ref 0 in
  List.iter
    (fun e ->
      if e.live then begin
        e.live <- false;
        incr fired;
        e.callback ()
      end)
    (List.rev !due);
  !fired

let pending t =
  drop_dead t;
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    if t.heap.(i).live then incr n
  done;
  !n
