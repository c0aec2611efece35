(* Machine-readable bench accounting. Every experiment that used to
   count messages and bytes by hand out of its own trace now wraps the
   run in [measure], which turns observability on, reads the Dmw_obs
   counters afterwards, and accumulates one row per run. [flush]
   writes the rows as one JSON array — BENCH_10.json — in the standard
   schema: experiment, backend, n, m, msgs, bytes, modexps,
   duration_ns. Experiments whose results are scores rather than
   traffic (mechanism_matrix) append [custom] rows instead: the same
   array, a fixed set of leading keys, and %.6f-rendered floats so the
   file is bit-identical across runs from a pinned seed. *)

module Metrics = Dmw_obs.Metrics

type row = {
  experiment : string;
  backend : string;
  n : int;
  m : int;
  msgs : int;
  bytes : int;
  modexps : int;
  duration_ns : int;
      (* The run's own completion clock — virtual seconds on the
         simulator. 0 when the experiment reports no duration. *)
}

let rows : row list ref = ref []

(* Sum of a counter over every label set it was recorded under. *)
let counter_total name =
  List.fold_left
    (fun acc s ->
      match s with
      | Metrics.Counter { name = n'; value; _ } when String.equal n' name ->
          acc + value
      | _ -> acc)
    0 (Metrics.samples ())

let measure ?duration_of ~experiment ~backend ~n ~m f =
  Metrics.reset ();
  Dmw_obs.Span.reset ();
  Metrics.enable ();
  let result = Fun.protect ~finally:Metrics.disable f in
  let duration_ns =
    match duration_of with
    | None -> 0
    | Some seconds_of -> int_of_float (seconds_of result *. 1e9)
  in
  let row =
    { experiment; backend; n; m;
      msgs = counter_total "dmw_messages_total";
      bytes = counter_total "dmw_bytes_total";
      modexps = counter_total "dmw_modexp_total";
      duration_ns }
  in
  rows := row :: !rows;
  (result, row)

(* Pre-rendered JSON objects from experiments with their own schema;
   [add_custom] renders eagerly so a row is a plain string and flush
   stays trivially deterministic. *)
type field = S of string | I of int | F of float

let custom_rows : string list ref = ref []

let add_custom ~experiment fields =
  let render (k, v) =
    match v with
    | S s -> Printf.sprintf "%S:%S" k s
    | I i -> Printf.sprintf "%S:%d" k i
    | F f -> Printf.sprintf "%S:%.6f" k f
  in
  let body =
    String.concat "," (render ("experiment", S experiment) :: List.map render fields)
  in
  custom_rows := Printf.sprintf "{%s}" body :: !custom_rows

let flush ?(path = "BENCH_10.json") () =
  let measured = List.length !rows in
  let total = measured + List.length !custom_rows in
  (* A run whose experiments measured nothing keeps the previous file. *)
  if total = 0 then Printf.printf "\nno bench rows; left %s as it was\n" path
  else begin
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        output_string oc "[";
        List.iteri
          (fun i r ->
            Printf.fprintf oc "%s\n  {\"experiment\":%S,\"backend\":%S,\"n\":%d,\"m\":%d,\"msgs\":%d,\"bytes\":%d,\"modexps\":%d,\"duration_ns\":%d}"
              (if i = 0 then "" else ",")
              r.experiment r.backend r.n r.m r.msgs r.bytes r.modexps
              r.duration_ns)
          (List.rev !rows);
        List.iteri
          (fun i row ->
            Printf.fprintf oc "%s\n  %s"
              (if measured = 0 && i = 0 then "" else ",")
              row)
          (List.rev !custom_rows);
        output_string oc "\n]\n");
    Printf.printf "\nwrote %d bench rows to %s\n" total path
  end
