(* The taint analysis' own test suite (tools/taint). The fixtures in
   taint_fixtures/ are compiled as a real library so the analysis runs
   on genuine .cmt files; each seeded leak must trip exactly the rule
   it was written for at the pinned location, the near-miss module
   (every secret laundered through a sanctioned declassifier) must be
   silent, and the interprocedural leak must be visible only when the
   callee's summary is in the analyzed set. Fabricated [rule_path]s
   exercise the same path scoping the real tree is checked under. *)

let cmt name =
  Filename.concat "taint_fixtures/.taint_fixtures.objs/byte"
    ("taint_fixtures__" ^ name ^ ".cmt")

let input ?source ~rule_path name =
  { Taint.cmt_path = cmt name; rule_path = Some rule_path; source }

let pp_violations vs =
  String.concat "; "
    (List.map
       (fun v ->
         Printf.sprintf "%s:%d:[%s] %s" v.Taint.file v.Taint.line v.Taint.rule
           v.Taint.message)
       vs)

let locs_of vs = List.map (fun v -> (v.Taint.rule, v.Taint.line)) vs

let contains ~affix s =
  let na = String.length affix and ns = String.length s in
  let rec go i = i + na <= ns && (String.sub s i na = affix || go (i + 1)) in
  go 0

let check ~rule_path name expected =
  let vs = Taint.analyze [ input ~rule_path name ] in
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "%s as %s -> %s" name rule_path (pp_violations vs))
    expected (locs_of vs)

let test_seeded () =
  (* One leak per source class, each caught at its sink's location. *)
  check ~rule_path:"lib/crypto/leak_prng.ml" "Leak_prng" [ ("T-msg", 6) ];
  check ~rule_path:"lib/crypto/leak_share.ml" "Leak_share" [ ("T-log", 3) ];
  check ~rule_path:"lib/crypto/leak_dealer.ml" "Leak_dealer" [ ("T-msg", 4) ];
  check ~rule_path:"lib/core/leak_bid.ml" "Leak_bid" [ ("T-trace", 5) ];
  check ~rule_path:"lib/core/leak_obs.ml" "Leak_obs" [ ("T-log", 6) ]

let test_wire () =
  (* An in-scope draw published on the simulated network. *)
  check ~rule_path:"lib/crypto/leak_wire.ml" "Leak_wire" [ ("T-wire", 5) ]

let test_scope () =
  (* The same cmts under paths where the source class is not secret:
     PRNG draws outside the crypto/poly/agent scope drive public
     workloads, bid fields are only agent state under lib/core/, and
     the wire codec is allowed to take a share bundle apart. *)
  check ~rule_path:"bench/leak_prng.ml" "Leak_prng" [];
  check ~rule_path:"bench/leak_bid.ml" "Leak_bid" [];
  check ~rule_path:"bench/leak_obs.ml" "Leak_obs" [];
  check ~rule_path:"lib/core/codec.ml" "Leak_share" []

let test_near_miss () =
  (* Pedersen.commit and Bid_commitments.share_for declassify: the
     module handles raw draws and a dealer but publishes only
     commitments and an addressed share bundle. *)
  check ~rule_path:"lib/crypto/near_miss.ml" "Near_miss" []

let test_interproc () =
  (* The draw happens in Leak_helper; the leak is visible only when
     the callee's summary participates in the analysis. *)
  let together =
    Taint.analyze
      [ input ~rule_path:"lib/crypto/leak_helper.ml" "Leak_helper";
        input ~rule_path:"lib/crypto/leak_interproc.ml" "Leak_interproc" ]
  in
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "with summary -> %s" (pp_violations together))
    [ ("T-msg", 4) ]
    (locs_of together);
  (match together with
  | [ v ] ->
      Alcotest.(check string) "reported at the caller"
        "lib/crypto/leak_interproc.ml" v.Taint.file
  | _ -> Alcotest.fail "expected exactly one violation");
  check ~rule_path:"lib/crypto/leak_interproc.ml" "Leak_interproc" []

let test_submodules () =
  (* A submodule helper's summary is keyed by its innermost module, as
     its call sites name it: Draw.secret's return value and Out.send's
     parameter sink reach their callers like the top-level draw's. *)
  check ~rule_path:"lib/crypto/leak_submodule.ml" "Leak_submodule"
    [ ("T-wire", 18); ("T-wire", 20); ("T-wire", 23) ]

let test_annotations () =
  (* The valid annotation suppresses the line-6 crossing; the unused
     one is stale-declassify; the unknown keyword is T-annot. *)
  let source = Analysis_kit.Fs.read_file "taint_fixtures/annotated.ml" in
  let vs =
    Taint.analyze [ input ~rule_path:"lib/crypto/annotated.ml" ~source "Annotated" ]
  in
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "annotated.ml -> %s" (pp_violations vs))
    [ ("stale-declassify", 8); ("T-annot", 11) ]
    (locs_of vs);
  (* Without the source text no annotation applies, so the crossing
     itself surfaces instead. *)
  let bare =
    Taint.analyze [ input ~rule_path:"lib/crypto/annotated.ml" "Annotated" ]
  in
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "no source -> %s" (pp_violations bare))
    [ ("T-log", 6) ]
    (locs_of bare)

let test_output_modes () =
  let vs =
    Taint.analyze [ input ~rule_path:"lib/crypto/leak_prng.ml" "Leak_prng" ]
  in
  let human = Taint.human vs in
  Alcotest.(check bool) "human mentions rule" true
    (contains ~affix:"[T-msg]" human);
  Alcotest.(check bool) "human names the source class" true
    (contains ~affix:"PRNG" human);
  let json = Taint.to_json vs in
  Alcotest.(check bool) "json has rule field" true
    (contains ~affix:"\"rule\":\"T-msg\"" json);
  Alcotest.(check bool) "json reports the scoped path" true
    (contains ~affix:"\"file\":\"lib/crypto/leak_prng.ml\"" json);
  Alcotest.(check bool) "json pins the line" true
    (contains ~affix:"\"line\":6" json);
  Alcotest.(check string) "empty json" "[]\n" (Taint.to_json [])

let test_unreadable_cmt () =
  let vs =
    Taint.analyze
      [ { Taint.cmt_path = "taint_fixtures/no_such.cmt";
          rule_path = None;
          source = None }
      ]
  in
  Alcotest.(check (list string)) "cmt error surfaces" [ "cmt" ]
    (List.map (fun v -> v.Taint.rule) vs)

let () =
  Alcotest.run "dmw_taint"
    [ ( "flows",
        [ Alcotest.test_case "each seeded leak trips its rule" `Quick
            test_seeded;
          Alcotest.test_case "wire sink" `Quick test_wire;
          Alcotest.test_case "path scoping" `Quick test_scope;
          Alcotest.test_case "declassifiers: zero false positives" `Quick
            test_near_miss;
          Alcotest.test_case "interprocedural summaries" `Quick test_interproc;
          Alcotest.test_case "submodule helpers" `Quick test_submodules ]
      );
      ( "reporting",
        [ Alcotest.test_case "annotation scoping" `Quick test_annotations;
          Alcotest.test_case "human and json output" `Quick test_output_modes;
          Alcotest.test_case "unreadable cmt is a violation" `Quick
            test_unreadable_cmt ] ) ]
