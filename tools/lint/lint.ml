(* Syntactic analysis over the Parsetree (compiler-libs): every rule
   here is a conservative approximation decidable without type
   inference, tuned so the current tree is clean and the mistakes the
   rules target cannot re-enter silently. See lint.mli for the rule
   rationale. Reporting, escape-hatch parsing and file walking are
   shared with dmw_taint through Analysis_kit. *)

open Parsetree
module Report = Analysis_kit.Report
module Allow = Analysis_kit.Allow
module Fs = Analysis_kit.Fs

type violation = Report.violation = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

(* ------------------------------------------------------------------ *)
(* Rule scoping                                                        *)
(* ------------------------------------------------------------------ *)

let has_prefix = Fs.has_prefix

type active = {
  r1 : bool;
  r2 : bool;
  r3 : bool;
  r4 : bool;
  r5 : bool;
  r6 : bool;
  r7 : bool;
}

let active_for path =
  { r1 = not (has_prefix "lib/bigint/" path || has_prefix "lib/modular/" path);
    r2 =
      has_prefix "lib/crypto/" path
      || has_prefix "lib/modular/" path
      || has_prefix "lib/core/" path;
    (* Inside lib/ the typedtree-based dmw_det owns unseeded-randomness
       detection (rule D-random, path-resolved so aliased spellings are
       caught too); the syntactic rule only patrols the trees the
       determinism analyzer does not see. *)
    r3 = not (has_prefix "lib/" path);
    (* Inside lib/ the typedtree-based dmw_race owns bare-mutex
       detection (rule R-bare, wrapper-shape aware); the syntactic
       rule only patrols the trees the race analyzer does not see. *)
    r4 = not (has_prefix "lib/" path);
    r5 =
      path = "lib/core/agent.ml"
      || has_prefix "lib/exec/" path
      || has_prefix "lib/net/" path;
    r6 = true;
    r7 = has_prefix "lib/" path && not (has_prefix "lib/obs/" path) }

(* ------------------------------------------------------------------ *)
(* Escape hatch: (* lint: allow <kw>: reason *)                        *)
(* ------------------------------------------------------------------ *)

let rule_of_keyword = function
  | "bigint-arith" | "R1" | "r1" -> Some "R1"
  | "poly-eq" | "R2" | "r2" -> Some "R2"
  | "random" | "R3" | "r3" -> Some "R3"
  | "mutex" | "R4" | "r4" -> Some "R4"
  | "wildcard" | "R5" | "r5" -> Some "R5"
  | "partial" | "R6" | "r6" -> Some "R6"
  | "printf" | "R7" | "r7" -> Some "R7"
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Longident helpers                                                   *)
(* ------------------------------------------------------------------ *)

let flatten lid = try Longident.flatten lid with _ -> []

let rec last_opt = function
  | [] -> None
  | [ x ] -> Some x
  | _ :: rest -> last_opt rest

(* Modules whose values must never meet a polymorphic comparison:
   bignums, field/group elements, commitments, shares and the
   variant types with dedicated [equal]s. *)
let sensitive_mods =
  [ "Bigint"; "Nat"; "Zmod"; "Group"; "Pedersen"; "Share";
    "Bid_commitments"; "Exponent_resolution"; "Messages"; "Strategy"; "Audit" ]

(* Functions from sensitive modules that return ints/bools/strings —
   comparing their results polymorphically is fine. *)
let scalar_returning =
  [ "compare"; "equal"; "sign"; "num_bits"; "byte_size"; "to_int"; "to_int_exn";
    "to_string"; "to_float"; "hash"; "testbit"; "is_even"; "is_zero";
    "is_prime"; "is_suggested"; "element_bytes"; "exponent_bytes"; "bits";
    "checks_performed"; "tag"; "encoded_size"; "mem" ]

let mentions_sensitive lid =
  List.exists (fun c -> List.mem c sensitive_mods) (flatten lid)

(* Does this operand plausibly produce a crypto-domain value? *)
let rec sensitive_operand e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident _; _ } -> false
  | Pexp_ident { txt; _ } -> mentions_sensitive txt
  | Pexp_construct ({ txt; _ }, _) -> mentions_sensitive txt
  | Pexp_field (_, { txt; _ }) -> mentions_sensitive txt
  | Pexp_apply (f, _) -> (
      match f.pexp_desc with
      | Pexp_ident { txt = Longident.Ldot (m, name); _ } ->
          mentions_sensitive (Longident.Ldot (m, name))
          && not (List.mem name scalar_returning)
      | _ -> false)
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> sensitive_operand e
  | _ -> false

let is_none_construct e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident "None"; _ }, None) -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* R5 pattern analysis                                                 *)
(* ------------------------------------------------------------------ *)

let rec pat_mentions_messages p =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, arg) ->
      List.mem "Messages" (flatten txt)
      || (match arg with Some (_, p) -> pat_mentions_messages p | None -> false)
  | Ppat_or (a, b) -> pat_mentions_messages a || pat_mentions_messages b
  | Ppat_alias (p, _)
  | Ppat_constraint (p, _)
  | Ppat_lazy p
  | Ppat_open (_, p)
  | Ppat_exception p ->
      pat_mentions_messages p
  | Ppat_tuple ps | Ppat_array ps -> List.exists pat_mentions_messages ps
  | Ppat_record (fields, _) ->
      List.exists (fun (_, p) -> pat_mentions_messages p) fields
  | Ppat_variant (_, Some p) -> pat_mentions_messages p
  | _ -> false

(* A pattern that would swallow a future [Messages.t] constructor: a
   bare wildcard/variable, possibly wrapped in [Ok]/[Some] (the result
   of a decode), or any or-branch thereof. A named [Messages.C _] arm
   is not wildcard-ish — the constructor is spelled out. *)
let rec wildcardish p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> wildcardish p
  | Ppat_or (a, b) -> wildcardish a || wildcardish b
  | Ppat_construct ({ txt; _ }, arg) -> (
      let comps = flatten txt in
      if List.mem "Messages" comps then false
      else
        match (last_opt comps, arg) with
        | Some ("Ok" | "Some"), Some (_, p) -> wildcardish p
        | _ -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The walker                                                          *)
(* ------------------------------------------------------------------ *)

let comparison_ops = [ "="; "<>"; "=="; "!=" ]

let bigint_arith =
  [ "neg"; "add"; "sub"; "mul"; "ediv_rem"; "erem"; "pow"; "divmod"; "mul_int";
    "add_int"; "divmod_int" ]

let check_structure ~file ~rules ~allows structure =
  let out = ref [] in
  let add loc rule message =
    let p = loc.Location.loc_start in
    let line = p.Lexing.pos_lnum in
    let col = p.Lexing.pos_cnum - p.Lexing.pos_bol in
    let allowed =
      Allow.claim allows ~line
        ~keyword_ok:(fun kw -> rule_of_keyword kw = Some rule)
    in
    if not allowed then out := { file; line; col; rule; message } :: !out
  in
  let check_ident loc txt =
    (if rules.r1 then
       match txt with
       | Longident.Ldot (m, name) when List.mem name bigint_arith -> (
           match last_opt (flatten m) with
           | Some ("Bigint" | "Nat") ->
               add loc "R1"
                 (Printf.sprintf
                    "raw bignum arithmetic (%s) outside lib/bigint|lib/modular: \
                     exponents live in Z_q and group elements in Z_p — go \
                     through Zmod/Group so the value stays in its field"
                    (String.concat "." (flatten txt)))
           | _ -> ())
       | _ -> ());
    (if rules.r2 then
       match txt with
       | Longident.Lident "compare"
       | Longident.Ldot (Longident.Lident "Stdlib", "compare") ->
           add loc "R2"
             "polymorphic compare in a crypto-domain module: use the typed \
              compare (Bigint.compare, Int.compare, ...)"
       | Longident.Ldot (Longident.Lident "Hashtbl", "hash") ->
           add loc "R2"
             "Hashtbl.hash in a crypto-domain module: structural hashing of \
              abstract crypto values; use a typed hash"
       | _ -> ());
    (if rules.r3 then
       let comps = flatten txt in
       let rec module_component = function
         | [] | [ _ ] -> false (* the last component is the value name *)
         | "Random" :: _ -> true
         | _ :: rest -> module_component rest
       in
       if module_component comps then
         add loc "R3"
           "Stdlib.Random outside lib/bigint/prng.ml: all randomness must \
            flow through the seeded Prng so runs are reproducible across \
            backends");
    (if rules.r4 then
       match txt with
       | Longident.Ldot (Longident.Lident "Mutex", ("lock" | "unlock" as op)) ->
           add loc "R4"
             (Printf.sprintf
                "bare Mutex.%s: use Dmw_runtime.Mutex_util.with_lock, which \
                 unlocks on every path including exceptions"
                op)
       | _ -> ());
    (if rules.r7 then
       match txt with
       | Longident.Ldot (Longident.Lident "Printf", (("printf" | "eprintf") as f)) ->
           add loc "R7"
             (Printf.sprintf
                "bare Printf.%s in library code: console output belongs to \
                 the Dmw_obs sinks (Dmw_obs.Export.dump or an exporter) so \
                 reports stay machine-readable (escape hatch: (* lint: allow \
                 printf: reason *))"
                f)
       | _ -> ());
    if rules.r6 then
      match txt with
      | Longident.Lident "failwith"
      | Longident.Ldot (Longident.Lident "Stdlib", "failwith") ->
          add loc "R6"
            "failwith in protocol code: raise a dedicated exception or return \
             a result (escape hatch: (* lint: allow partial: reason *))"
      | Longident.Ldot (Longident.Lident "List", (("hd" | "tl") as f)) ->
          add loc "R6"
            (Printf.sprintf
               "partial List.%s: match on the list shape instead (escape \
                hatch: (* lint: allow partial: reason *))"
               f)
      | Longident.Ldot (Longident.Lident "Option", "get") ->
          add loc "R6"
            "partial Option.get: match, or document the invariant with \
             (* lint: allow partial: reason *)"
      | _ -> ()
  in
  let check_cases cases =
    if List.exists (fun c -> pat_mentions_messages c.pc_lhs) cases then
      List.iter
        (fun c ->
          if wildcardish c.pc_lhs then
            add c.pc_lhs.ppat_loc "R5"
              "wildcard arm in a match over Messages.t: enumerate the \
               constructors so a new message type forces this handler to be \
               revisited")
        cases
  in
  let expr_handler it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> check_ident e.pexp_loc txt
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ },
          [ (_, a); (_, b) ] )
      when rules.r2 && List.mem op comparison_ops ->
        if (op = "=" || op = "<>") && (is_none_construct a || is_none_construct b)
        then
          add e.pexp_loc "R2"
            "polymorphic comparison against None: use Option.is_none / \
             Option.is_some"
        else if sensitive_operand a || sensitive_operand b then
          add e.pexp_loc "R2"
            (Printf.sprintf
               "polymorphic (%s) on a crypto-domain value: use the module's \
                typed equal"
               op)
    | Pexp_assert
        { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None);
          _ }
      when rules.r6 ->
        add e.pexp_loc "R6"
          "assert false in protocol code: raise a dedicated exception, or \
           document the invariant with (* lint: allow partial: reason *)"
    | Pexp_match (_, cases) when rules.r5 -> check_cases cases
    | Pexp_function cases when rules.r5 -> check_cases cases
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let iterator = { Ast_iterator.default_iterator with expr = expr_handler } in
  iterator.structure iterator structure;
  !out

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let stale_violations ~file allows =
  List.map
    (fun (a : Allow.t) ->
      { file;
        line = a.line;
        col = 0;
        rule = "stale-allow";
        message =
          Printf.sprintf
            "(* lint: allow %s *) suppresses nothing here: the code it \
             excused is gone (or the keyword is unknown) — delete the \
             comment or fix the keyword"
            a.keyword })
    (Allow.stale allows)

let lint_file ?rule_path file =
  let rule_path = Fs.normalize (Option.value rule_path ~default:file) in
  let rules = active_for rule_path in
  match Fs.read_file file with
  | exception Sys_error msg ->
      [ { file; line = 1; col = 0; rule = "parse"; message = msg } ]
  | source -> (
      let allows = Allow.scan ~marker:"lint: allow " source in
      let lexbuf = Lexing.from_string source in
      Lexing.set_filename lexbuf file;
      match Parse.implementation lexbuf with
      | structure ->
          let vs = check_structure ~file ~rules ~allows structure in
          List.sort Report.by_position (vs @ stale_violations ~file allows)
      | exception exn ->
          let line, col, msg =
            match Location.error_of_exn exn with
            | Some (`Ok err) ->
                let loc = err.Location.main.Location.loc in
                let p = loc.Location.loc_start in
                ( p.Lexing.pos_lnum,
                  p.Lexing.pos_cnum - p.Lexing.pos_bol,
                  Format.asprintf "%a" Location.print_report err )
            | _ -> (1, 0, Printexc.to_string exn)
          in
          [ { file; line; col; rule = "parse"; message = msg } ])

let human = Report.human
let to_json = Report.to_json
