(* Host-time spans recorded around the benchmark's own calls into each
   layer.  Nothing inside the program is traced: a span covers one call
   from this directory into a public entry point.

   Rows live in growable parallel arrays (one column per field) and are
   written out only when the run ends.  Times are integer nanoseconds of
   the monotonic clock.  Recording is off unless [start] was called:
   [span] then just calls its argument. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type kind = int

let kind_names : string array ref = ref [||]

let kind name =
  let k = Array.length !kind_names in
  kind_names := Array.append !kind_names [| name |];
  k

let kind_name k = !kind_names.(k)

type t = {
  mutable n : int;
  mutable kinds : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable w0 : float array;
  mutable w1 : float array;
  mutable open_ : int;  (* innermost open span, -1 at top level *)
}

let rec_ = { n = 0; kinds = [||]; parent = [||]; req = [||]; t0 = [||]; t1 = [||];
             w0 = [||]; w1 = [||]; open_ = -1 }

let on = ref false

let start () =
  rec_.n <- 0;
  rec_.open_ <- -1;
  on := true

let stop () = on := false

let grow () =
  let cap = max 1024 (2 * Array.length rec_.kinds) in
  let ints a = Array.append a (Array.make (cap - Array.length a) 0) in
  let floats a = Array.append a (Array.make (cap - Array.length a) 0.0) in
  rec_.kinds <- ints rec_.kinds;
  rec_.parent <- ints rec_.parent;
  rec_.req <- ints rec_.req;
  rec_.t0 <- ints rec_.t0;
  rec_.t1 <- ints rec_.t1;
  rec_.w0 <- floats rec_.w0;
  rec_.w1 <- floats rec_.w1

(* [span k ~req f] runs [f ()] as one span of kind [k]; [req] groups the
   spans of one request (-1 for none). *)
let span k ?(req = -1) f =
  if not !on then f ()
  else begin
    if rec_.n = Array.length rec_.kinds then grow ();
    let i = rec_.n in
    rec_.n <- i + 1;
    rec_.kinds.(i) <- k;
    rec_.parent.(i) <- rec_.open_;
    rec_.req.(i) <- req;
    rec_.open_ <- i;
    rec_.w0.(i) <- Gc.minor_words ();
    rec_.t0.(i) <- now ();
    let close () =
      rec_.t1.(i) <- now ();
      rec_.w1.(i) <- Gc.minor_words ();
      rec_.open_ <- rec_.parent.(i)
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let dur i = rec_.t1.(i) - rec_.t0.(i)

(* Per-kind totals over the recorded forest. *)
type total = { count : int; dur_ns : int; self_ns : int; words : float }

let totals () =
  let child_ns = Array.make rec_.n 0 in
  for i = 0 to rec_.n - 1 do
    let p = rec_.parent.(i) in
    if p >= 0 then child_ns.(p) <- child_ns.(p) + dur i
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to rec_.n - 1 do
    let k = rec_.kinds.(i) in
    let t =
      Option.value (Hashtbl.find_opt tbl k)
        ~default:{ count = 0; dur_ns = 0; self_ns = 0; words = 0.0 }
    in
    Hashtbl.replace tbl k
      {
        count = t.count + 1;
        dur_ns = t.dur_ns + dur i;
        self_ns = t.self_ns + dur i - child_ns.(i);
        words = t.words +. (rec_.w1.(i) -. rec_.w0.(i));
      }
  done;
  fun k ->
    Option.value (Hashtbl.find_opt tbl k) ~default:{ count = 0; dur_ns = 0; self_ns = 0; words = 0.0 }

(* Chrome trace_event JSON ("X" complete events, µs), loadable in
   chrome://tracing or Perfetto. *)
let write_chrome path =
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let base = if rec_.n = 0 then 0 else rec_.t0.(0) in
  for i = 0 to rec_.n - 1 do
    if i > 0 then output_char oc ',';
    Printf.fprintf oc
      "\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d,\"minor_words\":%.0f}}"
      (kind_name rec_.kinds.(i))
      (float_of_int (rec_.t0.(i) - base) /. 1e3)
      (float_of_int (dur i) /. 1e3)
      rec_.req.(i)
      (rec_.w1.(i) -. rec_.w0.(i))
  done;
  output_string oc "\n]}\n";
  close_out oc
