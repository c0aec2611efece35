open Dmw_bigint

(* ------------------------------------------------------------------ *)
(* Policy specifications (pure, serializable)                          *)
(* ------------------------------------------------------------------ *)

type t =
  | None_
  | Crash of { node : int; time : float }
  | Silence_from of { node : int; phase : int }
  | Drop_link of { src : int; dst : int }
  | Drop_tagged of { node : int; tag : string }
  | Drop_random of { probability : float }
  | Delay_random of { probability : float; delay : float }
  | Duplicate_random of { probability : float }
  | All of t list

let check_probability ~what p =
  if p < 0.0 || p > 1.0 then
    invalid_arg (Printf.sprintf "Fault.%s: probability out of range" what)

let none = None_
let crash_at ~node ~time = Crash { node; time }
let drop_link ~src ~dst = Drop_link { src; dst }
let drop_tagged ~node ~tag = Drop_tagged { node; tag }

let drop_random ~probability =
  check_probability ~what:"drop_random" probability;
  Drop_random { probability }

let delay_random ~probability ~delay =
  check_probability ~what:"delay_random" probability;
  if delay < 0.0 then invalid_arg "Fault.delay_random: negative delay";
  Delay_random { probability; delay }

let duplicate_random ~probability =
  check_probability ~what:"duplicate_random" probability;
  Duplicate_random { probability }

let all policies = All policies

(* Rewrite node indices through a survivor mapping ([keep.(new) =
   original]). Terms aimed at an expelled node vanish: the environment
   they modelled left with the node. Index-free random policies pass
   through untouched. *)
let rec remap t ~keep =
  let find orig =
    let n = Array.length keep in
    let rec go i = if i >= n then None else if keep.(i) = orig then Some i else go (i + 1) in
    go 0
  in
  match t with
  | None_ | Drop_random _ | Delay_random _ | Duplicate_random _ -> t
  | Crash c -> (
      match find c.node with
      | Some node -> Crash { c with node }
      | None -> None_)
  | Silence_from s -> (
      match find s.node with
      | Some node -> Silence_from { s with node }
      | None -> None_)
  | Drop_link l -> (
      match (find l.src, find l.dst) with
      | Some src, Some dst -> Drop_link { src; dst }
      | _ -> None_)
  | Drop_tagged d -> (
      match find d.node with
      | Some node -> Drop_tagged { d with node }
      | None -> None_)
  | All ps -> (
      match
        List.filter_map
          (fun p ->
            match remap p ~keep with None_ -> None | p' -> Some p')
          ps
      with
      | [] -> None_
      | ps' -> All ps')

(* ------------------------------------------------------------------ *)
(* Protocol-phase ranks                                                *)
(* ------------------------------------------------------------------ *)

(* The protocol's message classes in causal order. Unknown tags rank
   with the earliest phase, so [silence_from ~phase:phase_bidding]
   silences a node completely. *)
let phase_bidding = 1
let phase_resolution = 2
let phase_disclosure = 3
let phase_second_resolution = 4
let phase_payment = 5

let phase_of_tag = function
  | "lambda_psi" -> phase_resolution
  | "f_disclosure" | "f_disclosure_h" -> phase_disclosure
  | "lambda_psi_excl" -> phase_second_resolution
  | "payment_report" -> phase_payment
  | "share" | "commitments" | "batch" -> phase_bidding
  | _ -> phase_bidding

let phase_name = function
  | 1 -> "bidding"
  | 2 -> "resolution"
  | 3 -> "disclosure"
  | 4 -> "second-resolution"
  | 5 -> "payment"
  | p -> string_of_int p

let phase_of_name = function
  | "bidding" -> Some phase_bidding
  | "resolution" -> Some phase_resolution
  | "disclosure" -> Some phase_disclosure
  | "second-resolution" -> Some phase_second_resolution
  | "payment" -> Some phase_payment
  | tag -> (
      (* Accept raw wire tags as phase names too. *)
      match tag with
      | "lambda_psi" | "f_disclosure" | "f_disclosure_h" | "lambda_psi_excl"
      | "payment_report" | "share" | "commitments" | "batch" ->
          Some (phase_of_tag tag)
      | _ -> None)

let silence_from ~node ~phase =
  if phase < phase_bidding || phase > phase_payment then
    invalid_arg "Fault.silence_from: unknown phase";
  Silence_from { node; phase }

(* ------------------------------------------------------------------ *)
(* Deterministic per-message coins                                     *)
(* ------------------------------------------------------------------ *)

(* Every random policy resolves its coin as a pure function of the
   run seed and the message identity (src, dst, tag, key, attempt) —
   never of the order in which decisions are requested. This is what
   makes a fault schedule replay bit-identically on the single-threaded
   simulator and on the concurrent backends, whose interleavings
   differ run to run: the set of messages the environment loses is a
   property of the schedule, not of the race that day. *)

let mix h v =
  (* splitmix64-style finalizer over OCaml's 63-bit native ints
     (multipliers truncated to stay representable). *)
  let h = h lxor (v * 0x9E3779B1) in
  let h = (h lxor (h lsr 30)) * 0x2545F4914F6CDD1D in
  let h = (h lxor (h lsr 27)) * 0x27D4EB2F165667C5 in
  h lxor (h lsr 31)

let tag_hash tag =
  let h = ref 0x811C9DC5 in
  String.iter (fun c -> h := (!h * 131) + Char.code c) tag;
  !h

let coin ~seed ~role ~src ~dst ~tag ~key ~attempt =
  let h =
    List.fold_left mix (seed lxor 0x0FA177)
      [ role; src; dst; tag_hash tag; key; attempt ]
  in
  (* One draw from a generator seeded with the mixed identity: uniform
     in [0, 1) and independent across identities. *)
  Prng.float (Prng.create ~seed:h)

(* ------------------------------------------------------------------ *)
(* Instances and decisions                                             *)
(* ------------------------------------------------------------------ *)

type decision = { drop : bool; delay : float; copies : int }

let delivered = { drop = false; delay = 0.0; copies = 0 }

type instance = { spec : t; seed : int }

let instantiate spec ~seed = { spec; seed }

(* Role salts keep the drop, delay and duplication coins of one
   message independent even under composed policies. *)
let role_drop = 1
let role_delay = 2
let role_duplicate = 3

let rec decide_spec spec ~seed ~elapsed ~src ~dst ~tag ~key ~attempt =
  match spec with
  | None_ -> delivered
  | Crash c ->
      if (c.node = src || c.node = dst) && elapsed >= c.time then
        { delivered with drop = true }
      else delivered
  | Silence_from s ->
      if s.node = src && phase_of_tag tag >= s.phase then
        { delivered with drop = true }
      else delivered
  | Drop_link l ->
      if l.src = src && l.dst = dst then { delivered with drop = true }
      else delivered
  | Drop_tagged d ->
      if d.node = src && String.equal d.tag tag then
        { delivered with drop = true }
      else delivered
  | Drop_random { probability } ->
      if coin ~seed ~role:role_drop ~src ~dst ~tag ~key ~attempt < probability
      then { delivered with drop = true }
      else delivered
  | Delay_random { probability; delay } ->
      if coin ~seed ~role:role_delay ~src ~dst ~tag ~key ~attempt < probability
      then { delivered with delay }
      else delivered
  | Duplicate_random { probability } ->
      if
        coin ~seed ~role:role_duplicate ~src ~dst ~tag ~key ~attempt
        < probability
      then { delivered with copies = 1 }
      else delivered
  | All ps ->
      List.fold_left
        (fun acc p ->
          let d = decide_spec p ~seed ~elapsed ~src ~dst ~tag ~key ~attempt in
          { drop = acc.drop || d.drop;
            delay = acc.delay +. d.delay;
            copies = acc.copies + d.copies })
        delivered ps

let decide i ~elapsed ~src ~dst ~tag ~key ?(attempt = 0) () =
  decide_spec i.spec ~seed:i.seed ~elapsed ~src ~dst ~tag ~key ~attempt

(* Bounded retransmission is only worth scheduling against policies
   whose losses are independent coin flips; deterministic drops (links,
   tags, silenced phases) lose every attempt. *)
let rec retransmits = function
  | Drop_random { probability } -> if probability > 0.0 then 3 else 0
  | All ps -> List.fold_left (fun acc p -> max acc (retransmits p)) 0 ps
  | None_ | Crash _ | Silence_from _ | Drop_link _ | Drop_tagged _
  | Delay_random _ | Duplicate_random _ ->
      0

(* ------------------------------------------------------------------ *)
(* Parsing and printing                                                *)
(* ------------------------------------------------------------------ *)

let rec to_string = function
  | None_ -> "none"
  | Crash { node; time } -> Printf.sprintf "crash=%d@%g" node time
  | Silence_from { node; phase } ->
      Printf.sprintf "silence=%d@%s" node (phase_name phase)
  | Drop_link { src; dst } -> Printf.sprintf "link=%d-%d" src dst
  | Drop_tagged { node; tag } -> Printf.sprintf "tag=%d:%s" node tag
  | Drop_random { probability } -> Printf.sprintf "drop=%g" probability
  | Delay_random { probability; delay } ->
      Printf.sprintf "delay=%g:%g" probability delay
  | Duplicate_random { probability } -> Printf.sprintf "dup=%g" probability
  | All ps -> String.concat "," (List.map to_string ps)

let parse_term term =
  let ( let* ) r f = Result.bind r f in
  let int_of s =
    match int_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "expected an integer, got %S" s)
  in
  let float_of s =
    match float_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "expected a number, got %S" s)
  in
  let prob_of s =
    let* p = float_of s in
    if p < 0.0 || p > 1.0 then Error (Printf.sprintf "probability %S out of [0, 1]" s)
    else Ok p
  in
  let split2 sep s =
    match String.index_opt s sep with
    | Some i ->
        Ok
          ( String.sub s 0 i,
            String.sub s (i + 1) (String.length s - i - 1) )
    | None -> Error (Printf.sprintf "expected %C in %S" sep s)
  in
  match String.index_opt term '=' with
  | None ->
      if String.equal term "none" then Ok None_
      else Error (Printf.sprintf "unknown fault term %S" term)
  | Some i -> (
      let kind = String.sub term 0 i in
      let arg = String.sub term (i + 1) (String.length term - i - 1) in
      match kind with
      | "drop" ->
          let* p = prob_of arg in
          Ok (Drop_random { probability = p })
      | "dup" ->
          let* p = prob_of arg in
          Ok (Duplicate_random { probability = p })
      | "delay" ->
          let* p, d = split2 ':' arg in
          let* p = prob_of p in
          let* d = float_of d in
          if d < 0.0 then Error "negative delay"
          else Ok (Delay_random { probability = p; delay = d })
      | "link" ->
          let* s, d = split2 '-' arg in
          let* s = int_of s in
          let* d = int_of d in
          Ok (Drop_link { src = s; dst = d })
      | "tag" ->
          let* n, tg = split2 ':' arg in
          let* n = int_of n in
          Ok (Drop_tagged { node = n; tag = tg })
      | "silence" ->
          let* n, ph = split2 '@' arg in
          let* n = int_of n in
          (match phase_of_name ph with
          | Some phase -> Ok (Silence_from { node = n; phase })
          | None -> Error (Printf.sprintf "unknown phase %S" ph))
      | "crash" ->
          let* n, tm = split2 '@' arg in
          let* n = int_of n in
          let* tm = float_of tm in
          Ok (Crash { node = n; time = tm })
      | _ -> Error (Printf.sprintf "unknown fault kind %S" kind))

let of_string s =
  let terms =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun t -> not (String.equal t ""))
  in
  match terms with
  | [] -> Error "empty fault specification"
  | [ t ] -> parse_term t
  | ts -> (
      let rec go acc = function
        | [] -> Ok (All (List.rev acc))
        | t :: rest -> (
            match parse_term t with
            | Ok p -> go (p :: acc) rest
            | Error _ as e -> e)
      in
      go [] ts)

let pp fmt t = Format.pp_print_string fmt (to_string t)
