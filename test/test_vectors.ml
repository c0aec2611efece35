(* Cross-validation of the bignum and modular layers against vectors
   generated independently with Python 3 (see
   test/vectors/bignum_vectors.txt). This guards against the class of
   bugs property tests cannot see: a self-consistent but wrong
   arithmetic core. *)

open Dmw_bigint
open Dmw_modular

(* Resolve the data file both under `dune runtest` (cwd = test dir)
   and `dune exec` from the project root. *)
let resolve name =
  let candidates =
    [ Filename.concat "vectors" name;
      Filename.concat "test/vectors" name;
      Filename.concat (Filename.dirname Sys.executable_name)
        (Filename.concat "vectors" name) ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> List.hd candidates

let vectors_file = resolve "bignum_vectors.txt"
let karatsuba_file = resolve "karatsuba_vectors.txt"
let golden_file = resolve "golden_outcomes.txt"

let load_file file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | line ->
        let acc =
          if String.length line = 0 || line.[0] = '#' then acc
          else String.split_on_char ' ' line :: acc
        in
        go acc
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let load_vectors () = load_file vectors_file

let bi = Bigint.of_string

let counts = Hashtbl.create 8

let bump op =
  Hashtbl.replace counts op (1 + Option.value ~default:0 (Hashtbl.find_opt counts op))

let check_vector fields =
  match fields with
  | [ "add"; a; b; expect ] ->
      bump "add";
      Alcotest.(check bool) "add" true (Bigint.equal (Bigint.add (bi a) (bi b)) (bi expect))
  | [ "sub"; a; b; expect ] ->
      bump "sub";
      Alcotest.(check bool) "sub" true (Bigint.equal (Bigint.sub (bi a) (bi b)) (bi expect))
  | [ "mul"; a; b; expect ] ->
      bump "mul";
      Alcotest.(check bool) "mul" true (Bigint.equal (Bigint.mul (bi a) (bi b)) (bi expect))
  | [ "divmod"; a; b; q; r ] ->
      bump "divmod";
      let q', r' = Bigint.ediv_rem (bi a) (bi b) in
      Alcotest.(check bool) "quotient" true (Bigint.equal q' (bi q));
      Alcotest.(check bool) "remainder" true (Bigint.equal r' (bi r))
  | [ "powmod"; b; e; m; expect ] ->
      bump "powmod";
      Alcotest.(check bool) "powmod" true
        (Bigint.equal (Zmod.pow (bi m) (bi b) (bi e)) (bi expect))
  | [ "invmod"; a; m; expect ] ->
      bump "invmod";
      Alcotest.(check bool) "invmod" true (Bigint.equal (Zmod.inv (bi m) (bi a)) (bi expect))
  | [ "gcd"; a; b; expect ] ->
      bump "gcd";
      Alcotest.(check bool) "gcd" true (Bigint.equal (Zmod.gcd (bi a) (bi b)) (bi expect))
  | [ "prime"; n; expect ] ->
      bump "prime";
      let rng = Prng.create ~seed:1 in
      Alcotest.(check bool) ("prime " ^ n) (expect = "1") (Primality.is_prime rng (bi n))
  | _ -> Alcotest.failf "malformed vector: %s" (String.concat " " fields)

let test_all_vectors () =
  let vectors = load_vectors () in
  Alcotest.(check bool) "vectors present" true (List.length vectors > 300);
  List.iter check_vector vectors;
  (* Every operation class must actually be covered. *)
  List.iter
    (fun op ->
      Alcotest.(check bool) (op ^ " covered") true
        (Option.value ~default:0 (Hashtbl.find_opt counts op) > 10))
    [ "add"; "sub"; "mul"; "divmod"; "powmod"; "invmod"; "gcd"; "prime" ]

(* Operands crossing the 32-limb Karatsuba threshold: the only code
   path the random property tests (<= 400 bits) never reach. *)
let test_karatsuba_vectors () =
  let vectors = load_file karatsuba_file in
  Alcotest.(check bool) "vectors present" true (List.length vectors > 30);
  List.iter check_vector vectors;
  (* Sanity: these really are above the threshold. *)
  let big = Bigint.shift_left Bigint.one 2000 in
  Alcotest.(check bool) "2000-bit square roundtrip" true
    (let q, r = Bigint.ediv_rem (Bigint.mul big big) big in
     Bigint.equal q big && Bigint.is_zero r)

(* Golden protocol outcomes: pins the deterministic contract — an
   accidental change to candidate ordering, tie-breaking, pseudonym
   derivation or polynomial sampling shows up here immediately. *)
let test_golden_outcomes () =
  let vectors = load_file golden_file in
  Alcotest.(check bool) "cases present" true (List.length vectors >= 8);
  List.iter
    (fun fields ->
      match fields with
      | "case" :: n :: m :: c :: seed :: ":" :: rest ->
          let n = int_of_string n and m = int_of_string m in
          let c = int_of_string c and seed = int_of_string seed in
          let ints s = String.split_on_char ',' s |> List.map int_of_string in
          let bids_flat, assignment, y1, y2 =
            match rest with
            | [ b; ":"; a; ":"; f; ":"; s ] -> (ints b, ints a, ints f, ints s)
            | _ -> Alcotest.fail "malformed golden case"
          in
          let p = Dmw_core.Params.make_exn ~group_bits:64 ~seed ~n ~m ~c () in
          let bids =
            Array.init n (fun i ->
                Array.init m (fun j -> List.nth bids_flat ((i * m) + j)))
          in
          let r = Dmw_exec.run ~seed p ~bids ~keep_events:false in
          Alcotest.(check (option (list int)))
            (Printf.sprintf "assignment n=%d m=%d seed=%d" n m seed)
            (Some assignment)
            (Option.map
               (fun s -> Array.to_list (Dmw_mechanism.Schedule.assignment s))
               r.Dmw_exec.schedule);
          Alcotest.(check (option (list int))) "first prices" (Some y1)
            (Option.map Array.to_list r.Dmw_exec.first_prices);
          Alcotest.(check (option (list int))) "second prices" (Some y2)
            (Option.map Array.to_list r.Dmw_exec.second_prices)
      | _ -> Alcotest.failf "malformed golden line: %s" (String.concat " " fields))
    vectors

let () =
  Alcotest.run "dmw_vectors"
    [ ("python cross-validation",
       [ Alcotest.test_case "all vectors" `Quick test_all_vectors;
         Alcotest.test_case "karatsuba-range operands" `Quick
           test_karatsuba_vectors ]);
      ("golden outcomes",
       [ Alcotest.test_case "deterministic contract" `Quick test_golden_outcomes ]) ]
