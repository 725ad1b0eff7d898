(* In-memory span recorder for the traced run.

   A span is opened and closed by the benchmark's own code around a call
   into a layer. Spans nest: a span's parent is the span open when it
   started. Millions of spans are aggregated as they close, per kind, into
   a call count, a total duration and a self time (duration minus the part
   covered by child spans), so recording allocates nothing and the figures
   are written out once, when the run ends. *)

type t = {
  names : string array;
  calls : int array;
  total_ns : int array;
  self_ns : int array;
  stack_kind : int array;
  stack_start : int array;
  stack_child : int array;
  mutable depth : int;
}

let max_depth = 64

let create names =
  let k = Array.length names in
  { names;
    calls = Array.make k 0;
    total_ns = Array.make k 0;
    self_ns = Array.make k 0;
    stack_kind = Array.make max_depth 0;
    stack_start = Array.make max_depth 0;
    stack_child = Array.make max_depth 0;
    depth = 0 }

let now () = Int64.to_int (Monotonic_clock.now ())

let enter t kind =
  let d = t.depth in
  t.stack_kind.(d) <- kind;
  t.stack_child.(d) <- 0;
  t.depth <- d + 1;
  t.stack_start.(d) <- now ()

let leave t =
  let stop = now () in
  let d = t.depth - 1 in
  t.depth <- d;
  let kind = t.stack_kind.(d) in
  let dur = stop - t.stack_start.(d) in
  t.calls.(kind) <- t.calls.(kind) + 1;
  t.total_ns.(kind) <- t.total_ns.(kind) + dur;
  t.self_ns.(kind) <- t.self_ns.(kind) + dur - t.stack_child.(d);
  if d > 0 then t.stack_child.(d - 1) <- t.stack_child.(d - 1) + dur

let wrap t kind f =
  enter t kind;
  match f () with
  | r ->
    leave t;
    r
  | exception e ->
    leave t;
    raise e

let index t name =
  let rec go i =
    if i >= Array.length t.names then invalid_arg ("Span.index: " ^ name)
    else if t.names.(i) = name then i
    else go (i + 1)
  in
  go 0

let calls t name = t.calls.(index t name)
let total_s t name = float_of_int t.total_ns.(index t name) *. 1e-9
let self_s t name = float_of_int t.self_ns.(index t name) *. 1e-9
