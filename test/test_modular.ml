(* Tests for the modular-arithmetic substrate: Zmod, Primality,
   Primegen and Group. *)

open Dmw_bigint
open Dmw_modular
open Test_support

let bi = Bigint.of_string
let p97 = bi "97"

(* ------------------------------------------------------------------ *)
(* Zmod units                                                          *)

let test_normalize () =
  check_bigint "positive" (bi "5") (Zmod.normalize p97 (bi "102"));
  check_bigint "negative" (bi "92") (Zmod.normalize p97 (bi "-5"));
  check_bigint "zero" Bigint.zero (Zmod.normalize p97 (bi "194"))

let test_add_sub () =
  check_bigint "add wrap" (bi "1") (Zmod.add p97 (bi "50") (bi "48"));
  check_bigint "sub wrap" (bi "95") (Zmod.sub p97 (bi "3") (bi "5"));
  check_bigint "neg" (bi "94") (Zmod.neg p97 (bi "3"))

let test_mul_pow () =
  check_bigint "mul" (bi "1") (Zmod.mul p97 (bi "10") (bi "68"));
  check_bigint "pow small" (bi "6") (Zmod.pow p97 (bi "2") (bi "20"));
  check_bigint "pow zero exp" Bigint.one (Zmod.pow p97 (bi "13") Bigint.zero)

let test_fermat_little () =
  (* a^(p-1) = 1 mod p for prime p and gcd(a, p) = 1. *)
  List.iter
    (fun a ->
      check_bigint (Bigint.to_string a) Bigint.one
        (Zmod.pow p97 a (bi "96")))
    [ bi "2"; bi "3"; bi "50"; bi "96" ]

let test_inv () =
  List.iter
    (fun a ->
      check_bigint ("inv " ^ Bigint.to_string a) Bigint.one
        (Zmod.mul p97 a (Zmod.inv p97 a)))
    [ bi "1"; bi "2"; bi "50"; bi "96" ]

let test_inv_not_invertible () =
  Alcotest.check_raises "gcd > 1" Not_found (fun () ->
      ignore (Zmod.inv (bi "10") (bi "4")))

let test_negative_exponent () =
  (* b^-e = (b^-1)^e *)
  let b = bi "7" and e = bi "13" in
  check_bigint "inverse exp"
    (Zmod.pow p97 (Zmod.inv p97 b) e)
    (Zmod.pow p97 b (Bigint.neg e))

let test_egcd_bezout () =
  let g, x, y = Zmod.egcd (bi "240") (bi "46") in
  check_bigint "gcd" (bi "2") g;
  check_bigint "bezout" g
    (Bigint.add (Bigint.mul (bi "240") x) (Bigint.mul (bi "46") y))

let test_counters () =
  Zmod.Counters.reset ();
  Zmod.Counters.enable ();
  ignore (Zmod.pow p97 (bi "2") (bi "20"));
  Zmod.Counters.disable ();
  Alcotest.(check int) "one pow" 1 (Zmod.Counters.exponentiations ());
  Alcotest.(check bool) "some muls" true (Zmod.Counters.multiplications () > 0);
  let before = Zmod.Counters.multiplications () in
  ignore (Zmod.mul p97 (bi "2") (bi "3"));
  Alcotest.(check int) "disabled does not count" before
    (Zmod.Counters.multiplications ());
  Zmod.Counters.reset ();
  Alcotest.(check int) "reset" 0 (Zmod.Counters.multiplications ())

(* One modexp path at every size: square-and-multiply does one squaring
   per exponent bit and one multiplication per set bit. *)
let test_pow_square_and_multiply_counts () =
  let rng = Prng.create ~seed:404 in
  List.iter
    (fun bits ->
      let g = Group.standard ~bits in
      let b = Prng.below rng g.Group.p and e = Prng.below rng g.Group.q in
      let popcount =
        List.length
          (List.filter (Bigint.testbit e) (List.init (Bigint.num_bits e) Fun.id))
      in
      Zmod.Counters.reset ();
      Zmod.Counters.enable ();
      ignore (Zmod.pow g.Group.p b e);
      Zmod.Counters.disable ();
      Alcotest.(check int)
        (Printf.sprintf "%d-bit muls" bits)
        (Bigint.num_bits e + popcount)
        (Zmod.Counters.multiplications ()))
    [ 64; 512 ]

(* ------------------------------------------------------------------ *)
(* Fixed-width kernels at every limb-count edge                        *)

(* The reference: square-and-multiply over Bigint.mul and Bigint.erem,
   and inverses by extended Euclid. *)
let ref_mul m a b = Bigint.erem (Bigint.mul a b) m

let ref_inv m a =
  let g, x, _ = Zmod.egcd (Bigint.erem a m) m in
  if Bigint.equal g Bigint.one then Some (Bigint.erem x m) else None

let ref_pow m b e =
  let square_and_multiply b e =
    let b = Bigint.erem b m in
    let acc = ref (Bigint.erem Bigint.one m) in
    for i = Bigint.num_bits e - 1 downto 0 do
      acc := ref_mul m !acc !acc;
      if Bigint.testbit e i then acc := ref_mul m !acc b
    done;
    !acc
  in
  if Bigint.sign e >= 0 then Some (square_and_multiply b e)
  else Option.map (fun bi -> square_and_multiply bi (Bigint.neg e)) (ref_inv m b)

let kernel_rng = Prng.create ~seed:2505

(* Odd moduli of 1, 2, 3, 4, 18 and 35 limbs whose top limb is 1 or
   2^30 - 1, Algorithm D's two normalization extremes; the limbs below
   are random. *)
let top_limb_moduli =
  List.concat_map
    (fun limbs ->
      List.map
        (fun top ->
          let low = Bigint.low_bits (Prng.bits kernel_rng (30 * limbs)) (30 * (limbs - 1)) in
          let m = Bigint.add (Bigint.shift_left (Bigint.of_int top) (30 * (limbs - 1))) low in
          if Bigint.is_even m then Bigint.add m Bigint.one else m)
        [ 1; (1 lsl 30) - 1 ])
    [ 1; 2; 3; 4; 18; 35 ]

(* Every standard group's p and q (16 to 1024 bits: 1 to 35 limbs),
   the top-limb edges, and odd composites, so some operands share a
   factor with the modulus. *)
let edge_moduli =
  List.concat_map
    (fun bits ->
      let g = Group.standard ~bits in
      [ g.Group.p; g.Group.q ])
    Group.standard_sizes
  @ top_limb_moduli
  @ [ bi "21"; bi "15"; Bigint.mul (bi "3") (Group.standard ~bits:64).Group.q;
      Bigint.mul (bi "5") (Group.standard ~bits:512).Group.p ]

(* Zmod.mul's remainder does not need an odd modulus, and Zmod.inv
   falls back to extended Euclid on an even one. *)
let even_moduli =
  [ bi "10"; Bigint.shift_left Bigint.one 30;
    Bigint.add (Bigint.shift_left Bigint.one 60) Bigint.two;
    Bigint.shift_left (Group.standard ~bits:64).Group.p 1 ]

let edge_operands m =
  [ Bigint.zero; Bigint.one; Bigint.sub m Bigint.one; m;
    Bigint.add (Bigint.shift_left m 1) Bigint.one; Bigint.minus_one;
    Bigint.neg (Bigint.add m (bi "3")); bi "3"; bi "15";
    Prng.below kernel_rng m;
    Bigint.neg (Prng.below kernel_rng m) ]

let edge_exponents m =
  [ Bigint.zero; Bigint.one; Bigint.minus_one; Bigint.two;
    Prng.below kernel_rng m;
    Bigint.neg (Prng.below kernel_rng m) ]

let label m what = Printf.sprintf "%d-limb m=%s: %s" ((Bigint.num_bits m + 29) / 30)
    (Bigint.to_string m) what

(* The kernels must leave every operand's limbs as they found them:
   Bigint.to_nat hands them out without a copy. *)
let check_untouched m xs f =
  let snapshot () = List.map (fun x -> Nat.limbs (Bigint.to_nat (Bigint.abs x))) xs in
  let before = snapshot () in
  let r = f () in
  Alcotest.(check bool) (label m "operand limbs unchanged") true (before = snapshot ());
  r

let attempt f = match f () with x -> Some x | exception Not_found -> None

let test_kernel_mul () =
  List.iter
    (fun m ->
      let ops = edge_operands m in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              check_bigint
                (label m (Printf.sprintf "%s * %s" (Bigint.to_string a) (Bigint.to_string b)))
                (ref_mul m a b)
                (check_untouched m [ m; a; b ] (fun () -> Zmod.mul m a b)))
            ops;
          check_bigint (label m ("normalize " ^ Bigint.to_string a)) (Bigint.erem a m)
            (Zmod.normalize m a))
        ops)
    (edge_moduli @ even_moduli)

let test_kernel_pow () =
  List.iter
    (fun m ->
      List.iter
        (fun b ->
          List.iter
            (fun e ->
              let got =
                check_untouched m [ m; b; e ] (fun () -> attempt (fun () -> Zmod.pow m b e))
              in
              Alcotest.(check (option bigint_testable))
                (label m (Printf.sprintf "%s ^ %s" (Bigint.to_string b) (Bigint.to_string e)))
                (ref_pow m b e) got)
            (edge_exponents m))
        (edge_operands m))
    edge_moduli

let test_kernel_inv () =
  List.iter
    (fun m ->
      List.iter
        (fun a ->
          (* Not_found exactly when gcd(a, m) <> 1. *)
          Alcotest.(check (option bigint_testable))
            (label m ("inverse of " ^ Bigint.to_string a))
            (ref_inv m a)
            (check_untouched m [ m; a ] (fun () -> attempt (fun () -> Zmod.inv m a))))
        (edge_operands m))
    (edge_moduli @ even_moduli);
  Alcotest.check_raises "15 has no inverse mod 21" Not_found (fun () ->
      ignore (Zmod.inv (bi "21") (bi "15")));
  check_bigint "16 * 4 = 1 mod 21" (bi "4") (Zmod.inv (bi "21") (bi "16"))

let test_pow_even_modulus () =
  List.iter
    (fun (m, e) ->
      Alcotest.check_raises
        (Printf.sprintf "pow mod %s" m)
        (Invalid_argument "Zmod.pow: even modulus")
        (fun () -> ignore (Zmod.pow (bi m) (bi "3") (bi e))))
    [ ("10", "5"); ("2", "0"); ("1073741824", "-1");
      (Bigint.to_string (Bigint.shift_left (Group.standard ~bits:64).Group.q 1), "7") ]

(* ------------------------------------------------------------------ *)
(* Zmod properties                                                     *)

let q64 = (small_group ()).Group.q

let prop_field_inverse =
  QCheck.Test.make ~count:200 ~name:"a * a^-1 = 1 in Z_q"
    (arb_residue q64)
    (fun a -> Bigint.equal Bigint.one (Zmod.mul q64 a (Zmod.inv q64 a)))

let prop_pow_adds_exponents =
  QCheck.Test.make ~count:100 ~name:"b^(e1+e2) = b^e1 * b^e2"
    (QCheck.triple (arb_residue q64) (arb_residue q64) (arb_residue q64))
    (fun (b, e1, e2) ->
      Bigint.equal
        (Zmod.pow q64 b (Bigint.add e1 e2))
        (Zmod.mul q64 (Zmod.pow q64 b e1) (Zmod.pow q64 b e2)))

let prop_pow_mul_exponents =
  QCheck.Test.make ~count:50 ~name:"(b^e1)^e2 = b^(e1*e2)"
    (QCheck.triple (arb_residue q64)
       (QCheck.map Bigint.of_int QCheck.(int_range 0 1000))
       (QCheck.map Bigint.of_int QCheck.(int_range 0 1000)))
    (fun (b, e1, e2) ->
      Bigint.equal
        (Zmod.pow q64 (Zmod.pow q64 b e1) e2)
        (Zmod.pow q64 b (Bigint.mul e1 e2)))

let prop_egcd_divides =
  QCheck.Test.make ~count:200 ~name:"gcd divides both"
    (QCheck.pair (arb_nat ~max_bits:128 ()) (arb_nat ~max_bits:128 ()))
    (fun (a, b) ->
      QCheck.assume (not (Bigint.is_zero a) && not (Bigint.is_zero b));
      let g = Zmod.gcd a b in
      Bigint.is_zero (Bigint.erem a g) && Bigint.is_zero (Bigint.erem b g))

(* ------------------------------------------------------------------ *)
(* Primality                                                           *)

let rng () = Prng.create ~seed:31337

let test_small_primes_sound () =
  Array.iter
    (fun p -> Alcotest.(check bool) (string_of_int p) true (Primality.is_prime_int p))
    Primality.small_primes;
  Alcotest.(check int) "count below 1000" 168 (Array.length Primality.small_primes)

let test_known_primes () =
  let g = rng () in
  List.iter
    (fun s ->
      Alcotest.(check bool) s true (Primality.is_prime g (bi s)))
    [ "2"; "3"; "5"; "104729"; "2147483647" (* 2^31-1 Mersenne *);
      "170141183460469231731687303715884105727" (* 2^127-1 Mersenne *) ]

let test_known_composites () =
  let g = rng () in
  List.iter
    (fun s ->
      Alcotest.(check bool) s false (Primality.is_prime g (bi s)))
    [ "0"; "1"; "4"; "561" (* Carmichael *); "41041" (* Carmichael *);
      "104731"; "2147483649";
      "170141183460469231731687303715884105725" ]

let test_carmichael_with_witness () =
  (* 561 = 3 * 11 * 17 fools the Fermat test but not Miller-Rabin. *)
  Alcotest.(check bool) "witness found" true
    (Primality.miller_rabin_witness (bi "561") (bi "2"))

let test_product_of_primes_composite () =
  let g = rng () in
  let p1 = Primegen.prime g ~bits:40 and p2 = Primegen.prime g ~bits:40 in
  Alcotest.(check bool) "p1*p2 composite" false
    (Primality.is_prime g (Bigint.mul p1 p2))

(* ------------------------------------------------------------------ *)
(* Primegen                                                            *)

let test_prime_width () =
  let g = rng () in
  List.iter
    (fun bits ->
      let p = Primegen.prime g ~bits in
      Alcotest.(check int) (Printf.sprintf "%d bits" bits) bits (Bigint.num_bits p);
      Alcotest.(check bool) "prime" true (Primality.is_prime g p))
    [ 8; 16; 48; 80 ]

let test_safe_prime_structure () =
  let g = rng () in
  List.iter
    (fun bits ->
      let p, q = Primegen.safe_prime g ~bits in
      Alcotest.(check bool) "p = 2q+1" true
        (Bigint.equal p (Bigint.add (Bigint.shift_left q 1) Bigint.one));
      Alcotest.(check int) "width" bits (Bigint.num_bits p);
      Alcotest.(check bool) "p prime" true (Primality.is_prime g p);
      Alcotest.(check bool) "q prime" true (Primality.is_prime g q))
    [ 16; 24; 48 ]

let test_primegen_deterministic () =
  let a = Primegen.prime (Prng.create ~seed:5) ~bits:64 in
  let b = Primegen.prime (Prng.create ~seed:5) ~bits:64 in
  check_bigint "same seed, same prime" a b

(* ------------------------------------------------------------------ *)
(* Group                                                               *)

let test_standard_groups_valid () =
  let g = rng () in
  List.iter
    (fun bits ->
      let grp = Group.standard ~bits in
      Alcotest.(check int) "bits" bits (Group.bits grp);
      Alcotest.(check bool) "primes" true (Group.validate_prime g grp))
    Group.standard_sizes

let test_standard_small_rederivable () =
  (* The hardcoded constants must be exactly what the generator
     produces for the published seed. *)
  List.iter
    (fun bits ->
      let fresh = Group.generate (Prng.create ~seed:0xD3A) ~bits in
      let cached = Group.standard ~bits in
      check_bigint "p" cached.Group.p fresh.Group.p;
      check_bigint "z1" cached.Group.z1 fresh.Group.z1;
      check_bigint "z2" cached.Group.z2 fresh.Group.z2)
    [ 16; 32; 64 ]

let test_create_rejects_bad_params () =
  let g = Group.standard ~bits:32 in
  let expect_error ~p ~q ~z1 ~z2 msg =
    match Group.create ~p ~q ~z1 ~z2 with
    | Ok _ -> Alcotest.failf "expected error: %s" msg
    | Error _ -> ()
  in
  expect_error ~p:(Bigint.add g.Group.p Bigint.two) ~q:g.Group.q ~z1:g.Group.z1
    ~z2:g.Group.z2 "p <> 2q+1";
  expect_error ~p:g.Group.p ~q:g.Group.q ~z1:g.Group.z1 ~z2:g.Group.z1 "z1 = z2";
  expect_error ~p:g.Group.p ~q:g.Group.q ~z1:Bigint.one ~z2:g.Group.z2
    "z1 out of range";
  (* p - 1 has order 2, not q: must be rejected. *)
  let bad = Bigint.sub g.Group.p Bigint.one in
  expect_error ~p:g.Group.p ~q:g.Group.q ~z1:bad ~z2:g.Group.z2 "bad order"

let test_generator_orders () =
  let g = Group.standard ~bits:64 in
  check_bigint "z1^q = 1" Bigint.one (Zmod.pow g.Group.p g.Group.z1 g.Group.q);
  check_bigint "z2^q = 1" Bigint.one (Zmod.pow g.Group.p g.Group.z2 g.Group.q);
  Alcotest.(check bool) "z1 <> 1" false (Bigint.equal g.Group.z1 Bigint.one)

let test_pow_reduces_exponent () =
  let g = Group.standard ~bits:64 in
  let e = bi "123456789" in
  check_bigint "exponent mod q"
    (Group.pow g g.Group.z1 e)
    (Group.pow g g.Group.z1 (Bigint.add e g.Group.q))

let test_commit_homomorphic () =
  let g = Group.standard ~bits:64 in
  let r = rng () in
  for _ = 1 to 10 do
    let a1 = Group.random_exponent g r and a2 = Group.random_exponent g r in
    let b1 = Group.random_exponent g r and b2 = Group.random_exponent g r in
    check_bigint "homomorphism"
      (Group.mul g (Group.commit g a1 b1) (Group.commit g a2 b2))
      (Group.commit g (Bigint.add a1 a2) (Bigint.add b1 b2))
  done

let test_group_inv_div () =
  let g = Group.standard ~bits:64 in
  let r = rng () in
  let x = Group.pow g g.Group.z1 (Group.random_exponent g r) in
  check_bigint "x * x^-1" Bigint.one (Group.mul g x (Group.inv g x));
  check_bigint "x / x" Bigint.one (Group.div g x x)

let test_element_bytes () =
  let g = Group.standard ~bits:64 in
  Alcotest.(check int) "8 bytes" 8 (Group.element_bytes g);
  Alcotest.(check int) "exponent 8 bytes" 8 (Group.exponent_bytes g)

let test_standard_unsupported () =
  Alcotest.check_raises "unsupported"
    (Invalid_argument "Group.standard: unsupported size") (fun () ->
      ignore (Group.standard ~bits:77))

let prop_commit_binding_probe =
  (* Distinct (value, blinding) pairs virtually never collide; a
     collision would break binding. *)
  QCheck.Test.make ~count:50 ~name:"commitments separate distinct values"
    (QCheck.pair (arb_residue q64) (arb_residue q64))
    (fun (a, b) ->
      QCheck.assume (not (Bigint.equal a b));
      let g = small_group () in
      let blinding = bi "12345" in
      not
        (Bigint.equal
           (Group.commit g a blinding)
           (Group.commit g b blinding)))

let () =
  Alcotest.run "dmw_modular"
    [ ("zmod",
       [ Alcotest.test_case "normalize" `Quick test_normalize;
         Alcotest.test_case "add/sub" `Quick test_add_sub;
         Alcotest.test_case "mul/pow" `Quick test_mul_pow;
         Alcotest.test_case "fermat little theorem" `Quick test_fermat_little;
         Alcotest.test_case "inverse" `Quick test_inv;
         Alcotest.test_case "non-invertible" `Quick test_inv_not_invertible;
         Alcotest.test_case "negative exponent" `Quick test_negative_exponent;
         Alcotest.test_case "egcd bezout" `Quick test_egcd_bezout;
         Alcotest.test_case "counters" `Quick test_counters;
         Alcotest.test_case "square-and-multiply counts" `Quick
           test_pow_square_and_multiply_counts ]);
      ("zmod kernels",
       [ Alcotest.test_case "mul and normalize at limb edges" `Quick test_kernel_mul;
         Alcotest.test_case "pow at limb edges" `Quick test_kernel_pow;
         Alcotest.test_case "inv at limb edges" `Quick test_kernel_inv;
         Alcotest.test_case "pow refuses even moduli" `Quick test_pow_even_modulus ]);
      qsuite "zmod properties"
        [ prop_field_inverse;
          prop_pow_adds_exponents;
          prop_pow_mul_exponents;
          prop_egcd_divides ];
      ("primality",
       [ Alcotest.test_case "small prime table" `Quick test_small_primes_sound;
         Alcotest.test_case "known primes" `Quick test_known_primes;
         Alcotest.test_case "known composites" `Quick test_known_composites;
         Alcotest.test_case "carmichael witness" `Quick test_carmichael_with_witness;
         Alcotest.test_case "semiprime" `Quick test_product_of_primes_composite ]);
      ("primegen",
       [ Alcotest.test_case "prime width" `Quick test_prime_width;
         Alcotest.test_case "safe prime structure" `Quick test_safe_prime_structure;
         Alcotest.test_case "deterministic" `Quick test_primegen_deterministic ]);
      ("group",
       [ Alcotest.test_case "standard groups valid" `Quick test_standard_groups_valid;
         Alcotest.test_case "constants rederivable" `Quick test_standard_small_rederivable;
         Alcotest.test_case "create rejects bad params" `Quick test_create_rejects_bad_params;
         Alcotest.test_case "generator orders" `Quick test_generator_orders;
         Alcotest.test_case "pow reduces exponent" `Quick test_pow_reduces_exponent;
         Alcotest.test_case "commit homomorphic" `Quick test_commit_homomorphic;
         Alcotest.test_case "inv/div" `Quick test_group_inv_div;
         Alcotest.test_case "element bytes" `Quick test_element_bytes;
         Alcotest.test_case "unsupported size" `Quick test_standard_unsupported ]);
      qsuite "group properties" [ prop_commit_binding_probe ] ]
