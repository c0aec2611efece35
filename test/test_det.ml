(* The determinism analysis' own test suite (tools/det). The fixtures
   in det_fixtures/ are compiled as a real library so the analysis runs
   on genuine .cmt files; each seeded leak must trip exactly the rule
   it was written for at the pinned location, and the near-miss
   fixture (sorted iteration, D-obs wall times, timeout comparisons)
   must produce nothing. Fabricated [rule_path]s mirror how the real
   lib/ tree is checked. *)

let cmt name =
  Filename.concat "det_fixtures/.det_fixtures.objs/byte"
    ("det_fixtures__" ^ name ^ ".cmt")

let input ?source ~rule_path name =
  { Det.cmt_path = cmt name; rule_path = Some rule_path; source }

let pp_violations vs =
  String.concat "; "
    (List.map
       (fun v ->
         Printf.sprintf "%s:%d:[%s] %s" v.Det.file v.Det.line v.Det.rule
           v.Det.message)
       vs)

let locs_of vs = List.map (fun v -> (v.Det.rule, v.Det.line)) vs

let contains ~affix s =
  let na = String.length affix and ns = String.length s in
  let rec go i = i + na <= ns && (String.sub s i na = affix || go (i + 1)) in
  go 0

let check ?source ~rule_path name expected =
  let vs = Det.analyze [ input ?source ~rule_path name ] in
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "%s as %s -> %s" name rule_path (pp_violations vs))
    expected (locs_of vs)

let test_seeded () =
  (* A wall-clock reading in a frame payload. *)
  check ~rule_path:"lib/fixtures/clock_to_wire.ml" "Clock_to_wire"
    [ ("D-wire", 6) ];
  (* A wall-clock reading journaled into the write-ahead log. *)
  check ~rule_path:"lib/fixtures/clock_to_wal.ml" "Clock_to_wal"
    [ ("D-wal", 8) ];
  (* Hashtbl iteration order inside the consensus signature. *)
  check ~rule_path:"lib/fixtures/unsorted_consensus.ml" "Unsorted_consensus"
    [ ("D-consensus", 6) ];
  (* The ambient Random state, at both use sites. *)
  check ~rule_path:"lib/fixtures/unseeded_random.ml" "Unseeded_random"
    [ ("D-random", 6); ("D-random", 8) ]

let test_rule_paths () =
  (* The rule paths no other fixture reaches: a clock-derived seed, a
     non-clock class crossing the D-obs regime, and the env and physeq
     source classes. *)
  check ~rule_path:"lib/fixtures/clock_to_seed.ml" "Clock_to_seed"
    [ ("D-seed", 7) ];
  check ~rule_path:"lib/fixtures/hashorder_to_obs.ml" "Hashorder_to_obs"
    [ ("D-obs", 7) ];
  check ~rule_path:"lib/fixtures/env_to_wire.ml" "Env_to_wire"
    [ ("D-wire", 7) ];
  check ~rule_path:"lib/fixtures/physeq_to_audit.ml" "Physeq_to_audit"
    [ ("D-audit", 7) ]

let test_interproc () =
  (* Analyzed together, the helper's summary carries the clock into
     the audit sink; the caller alone never reads a clock. *)
  let vs =
    Det.analyze
      [ input ~rule_path:"lib/fixtures/det_helper.ml" "Det_helper";
        input ~rule_path:"lib/fixtures/interproc.ml" "Interproc" ]
  in
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "helper+caller -> %s" (pp_violations vs))
    [ ("D-audit", 8) ] (locs_of vs);
  Alcotest.(check bool) "reported in the caller's file" true
    (match vs with
    | [ v ] -> v.Det.file = "lib/fixtures/interproc.ml"
    | _ -> false);
  check ~rule_path:"lib/fixtures/interproc.ml" "Interproc" [];
  check ~rule_path:"lib/fixtures/det_helper.ml" "Det_helper" []

let test_submodules () =
  (* A submodule helper's summary is keyed by its innermost module, as
     its call sites name it: Clock.now's return value and Log.note's
     parameter sink reach their callers like the top-level stamp's. *)
  check ~rule_path:"lib/fixtures/submodule_flows.ml" "Submodule_flows"
    [ ("D-audit", 20); ("D-audit", 22); ("D-audit", 26) ]

let test_near_miss () =
  (* fold |> sort to the wire, wall time into D-obs, clock-vs-deadline
     comparison: all sanctioned by structure, none flagged. *)
  check ~rule_path:"lib/fixtures/near_miss.ml" "Near_miss" []

let test_annotations () =
  (* With the source in view: the valid wallclock annotation silences
     its crossing, the orphaned one is stale, the unknown keyword is
     D-annot and suppresses nothing. *)
  let source = Analysis_kit.Fs.read_file "det_fixtures/stale_annot.ml" in
  check ~rule_path:"lib/fixtures/stale_annot.ml" ~source "Stale_annot"
    [ ("stale-det", 10); ("D-annot", 14); ("D-wire", 15) ];
  (* Without the source no annotation applies: both crossings surface
     and no hygiene findings exist. *)
  check ~rule_path:"lib/fixtures/stale_annot.ml" "Stale_annot"
    [ ("D-wire", 8); ("D-wire", 15) ]

let test_lint_handoff () =
  (* Satellite of the R3 narrowing: on the same source, every ambient
     Random use the linter's syntactic R3 can see must also be a
     dmw_det D-random finding — so handing lib/ over to dmw_det loses
     nothing — and R3 itself must be inert under lib/. *)
  let src = "det_fixtures/unseeded_random.ml" in
  let r3_lines =
    Lint.lint_file ~rule_path:"bench/unseeded_random.ml" src
    |> List.filter_map (fun v ->
           if v.Lint.rule = "R3" then Some v.Lint.line else None)
  in
  Alcotest.(check (list int)) "R3 sees both sites" [ 6; 8 ] r3_lines;
  let det_lines =
    Det.analyze
      [ input ~rule_path:"lib/fixtures/unseeded_random.ml" "Unseeded_random" ]
    |> List.filter_map (fun v ->
           if v.Det.rule = "D-random" then Some v.Det.line else None)
  in
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "R3 line %d is covered by D-random" l)
        true (List.mem l det_lines))
    r3_lines;
  Alcotest.(check (list string))
    "R3 stands down inside lib/" []
    (Lint.lint_file ~rule_path:"lib/core/unseeded_random.ml" src
    |> List.map (fun v -> v.Lint.rule)
    |> List.filter (fun r -> r = "R3"))

let test_output_modes () =
  let vs =
    Det.analyze
      [ input ~rule_path:"lib/fixtures/clock_to_wire.ml" "Clock_to_wire" ]
  in
  let human = Det.human vs in
  Alcotest.(check bool) "human mentions rule" true
    (contains ~affix:"[D-wire]" human);
  Alcotest.(check bool) "human names the sink" true
    (contains ~affix:"Frame.write" human);
  let json = Det.to_json vs in
  Alcotest.(check bool) "json has rule field" true
    (contains ~affix:"\"rule\":\"D-wire\"" json);
  Alcotest.(check bool) "json reports the scoped path" true
    (contains ~affix:"\"file\":\"lib/fixtures/clock_to_wire.ml\"" json);
  Alcotest.(check bool) "json pins the line" true
    (contains ~affix:"\"line\":6" json);
  Alcotest.(check string) "empty json" "[]\n" (Det.to_json [])

let test_unreadable_cmt () =
  let vs =
    Det.analyze
      [ { Det.cmt_path = "det_fixtures/no_such.cmt";
          rule_path = None;
          source = None }
      ]
  in
  Alcotest.(check (list string)) "cmt error surfaces" [ "cmt" ]
    (List.map (fun v -> v.Det.rule) vs)

(* Run from the source root, the typed passes find no .cmt files; the
   shared CLI driver must call that a usage error (exit 2), not a
   clean report. [vectors] holds only the test's data files. *)
let test_no_input () =
  List.iter
    (fun tool ->
      let code =
        Sys.command
          (Printf.sprintf "../tools/%s/dmw_%s.exe vectors 2>/dev/null" tool
             tool)
      in
      Alcotest.(check int) (Printf.sprintf "dmw_%s on no .cmt" tool) 2 code)
    [ "det"; "taint"; "race" ]

let () =
  Alcotest.run "dmw_det"
    [ ( "flows",
        [ Alcotest.test_case "each seeded leak trips its rule" `Quick
            test_seeded;
          Alcotest.test_case "unpinned rule paths and classes" `Quick
            test_rule_paths;
          Alcotest.test_case "interprocedural flow through summaries" `Quick
            test_interproc;
          Alcotest.test_case "flows through submodule helpers" `Quick
            test_submodules;
          Alcotest.test_case "sanctioned near misses are silent" `Quick
            test_near_miss;
          Alcotest.test_case "det annotations" `Quick test_annotations ] );
      ( "integration",
        [ Alcotest.test_case "R3 handoff: det subsumes the linter" `Quick
            test_lint_handoff;
          Alcotest.test_case "human and json output" `Quick test_output_modes;
          Alcotest.test_case "unreadable cmt is a violation" `Quick
            test_unreadable_cmt;
          Alcotest.test_case "no input is a usage error" `Quick test_no_input
        ] ) ]
