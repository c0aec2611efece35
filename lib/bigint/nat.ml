(* Little-endian limbs in base 2^30. Invariant: no trailing zero limb;
   zero is [||]. Base 2^30 keeps every intermediate product of two
   limbs, and every two-limb dividend used by Knuth's algorithm D,
   inside OCaml's 63-bit native [int]. *)

type t = int array

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

let zero : t = [||]
let is_zero a = Array.length a = 0

(* Drop trailing zero limbs so that representations are canonical. *)
let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  if n = 0 then zero
  else if n < base then [| n |]
  else if n < base * base then [| n land mask; n lsr base_bits |]
  else [| n land mask; (n lsr base_bits) land mask; n lsr (2 * base_bits) |]

let one = of_int 1
let two = of_int 2

let to_int a =
  (* A native int holds at most 62 bits, i.e. strictly fewer than
     3 limbs unless the third limb is small. *)
  match Array.length a with
  | 0 -> Some 0
  | 1 -> Some a.(0)
  | 2 -> Some (a.(0) lor (a.(1) lsl base_bits))
  | 3 when a.(2) < 1 lsl (62 - (2 * base_bits)) ->
      Some (a.(0) lor (a.(1) lsl base_bits) lor (a.(2) lsl (2 * base_bits)))
  | _ -> None

let to_int_exn a =
  match to_int a with
  | Some i -> i
  (* lint: allow partial: partiality is this function's documented
     contract (the [_exn] suffix); callers wanting totality use to_int. *)
  | None -> failwith "Nat.to_int_exn: value too large"

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let equal a b = compare a b = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 2 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  r.(lr - 1) <- !carry;
  normalize r

let add_int a k =
  if k < 0 || k >= base then invalid_arg "Nat.add_int: out of range";
  if k = 0 then a else add a [| k |]

let sub a b =
  if compare a b < 0 then invalid_arg "Nat.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize r

let mul_int a k =
  if k < 0 || k >= base then invalid_arg "Nat.mul_int: out of range";
  if k = 0 || is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let p = (a.(i) * k) + !carry in
      r.(i) <- p land mask;
      carry := p lsr base_bits
    done;
    r.(la) <- !carry;
    normalize r
  end

(* [r.(0 .. la+lb-1) += a.(0 .. la-1) * b.(0 .. lb-1)], schoolbook;
   [r] must be zero there on entry. *)
let mul_into r a la b lb =
  for i = 0 to la - 1 do
    let ai = a.(i) in
    if ai <> 0 then begin
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        (* ai*bj <= (2^30-1)^2 < 2^60; adding two limbs stays < 2^62. *)
        let p = (ai * b.(j)) + r.(i + j) + !carry in
        r.(i + j) <- p land mask;
        carry := p lsr base_bits
      done;
      (* Propagate the final carry; it can itself overflow a limb when
         accumulated with existing content. *)
      let k = ref (i + lb) in
      let c = ref !carry in
      while !c <> 0 do
        let s = r.(!k) + !c in
        r.(!k) <- s land mask;
        c := s lsr base_bits;
        incr k
      done
    end
  done

let mul_schoolbook a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  mul_into r a la b lb;
  normalize r

let karatsuba_threshold = 32

(* Split [a] at limb index [k]: low part and high part. *)
let split a k =
  let la = Array.length a in
  if la <= k then (a, zero)
  else (normalize (Array.sub a 0 k), normalize (Array.sub a k (la - k)))

let shift_limbs a k =
  if is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + k) 0 in
    Array.blit a 0 r k la;
    r
  end

let rec mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else if la = 1 then mul_int b a.(0)
  else if lb = 1 then mul_int a b.(0)
  else if min la lb < karatsuba_threshold then mul_schoolbook a b
  else begin
    let k = (max la lb + 1) / 2 in
    let a0, a1 = split a k and b0, b1 = split b k in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    add z0 (add (shift_limbs z1 k) (shift_limbs z2 (2 * k)))
  end

(* Store [src.(0 .. len-1) lsl s] (0 <= s < base_bits) at
   [dst.(off ..)]; returns the bits shifted out of the top limb. *)
let shl_into dst off src len s =
  let carry = ref 0 in
  for i = 0 to len - 1 do
    let v = (src.(i) lsl s) lor !carry in
    dst.(off + i) <- v land mask;
    carry := v lsr base_bits
  done;
  !carry

(* [u.(0 .. len-1) <- u.(0 .. len-1) lsr s] for 0 <= s < base_bits. *)
let shr_in_place u len s =
  for i = 0 to len - 1 do
    let hi =
      if i + 1 < len then (u.(i + 1) lsl (base_bits - s)) land mask else 0
    in
    u.(i) <- (u.(i) lsr s) lor hi
  done

let shift_left a n =
  if n < 0 then invalid_arg "Nat.shift_left: negative";
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / base_bits and bits = n mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    r.(la + limbs) <- shl_into r limbs a la bits;
    normalize r
  end

let shift_right a n =
  if n < 0 then invalid_arg "Nat.shift_right: negative";
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / base_bits and bits = n mod base_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let r = Array.sub a limbs (la - limbs) in
      shr_in_place r (la - limbs) bits;
      normalize r
    end
  end

let bits_of_limb v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let num_bits a =
  let la = Array.length a in
  if la = 0 then 0 else ((la - 1) * base_bits) + bits_of_limb a.(la - 1)

let testbit a i =
  if i < 0 then invalid_arg "Nat.testbit: negative index";
  let limb = i / base_bits and bit = i mod base_bits in
  limb < Array.length a && (a.(limb) lsr bit) land 1 = 1

let is_even a = not (testbit a 0)

let divmod_int a k =
  if k <= 0 || k >= base then invalid_arg "Nat.divmod_int: out of range";
  let la = Array.length a in
  if la = 0 then (zero, 0)
  else begin
    let q = Array.make la 0 in
    let r = ref 0 in
    for i = la - 1 downto 0 do
      let cur = (!r lsl base_bits) lor a.(i) in
      q.(i) <- cur / k;
      r := cur mod k
    done;
    (normalize q, !r)
  end

(* Knuth TAOCP vol. 2, Algorithm 4.3.1 D, steps D2-D7, in place. [v]
   is an [n]-limb divisor ([n >= 2]) shifted so that its top bit is
   set; [u.(0 .. l+n)] holds an [(l+n)]-limb dividend shifted by the
   same amount, its top limb [u.(l+n)] taking the bits shifted out.
   Leaves the shifted remainder in [u.(0 .. n-1)] with zeros above it,
   and stores quotient digit [j] in [q.(j)] when [q] has that index
   (pass [[||]] for the remainder alone). *)
let knuth_loop u l v n q =
  let vh = v.(n - 1) and vl = v.(n - 2) in
  for j = l downto 0 do
    let top = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
    let qhat = ref (top / vh) and rhat = ref (top mod vh) in
    if !qhat >= base then begin
      (* qhat can exceed base-1 by at most 1 when u(j+n) = vh. *)
      let excess = !qhat - (base - 1) in
      qhat := base - 1;
      rhat := !rhat + (excess * vh)
    end;
    let continue = ref true in
    while !continue && !rhat < base do
      if !qhat * vl > (!rhat lsl base_bits) lor u.(j + n - 2) then begin
        decr qhat;
        rhat := !rhat + vh
      end
      else continue := false
    done;
    (* Multiply and subtract: u[j..j+n] -= qhat * v. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr base_bits;
      let d = u.(i + j) - (p land mask) - !borrow in
      if d < 0 then begin
        u.(i + j) <- d + base;
        borrow := 1
      end
      else begin
        u.(i + j) <- d;
        borrow := 0
      end
    done;
    let d = u.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* qhat was one too large: add back. *)
      u.(j + n) <- d + base;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let s = u.(i + j) + v.(i) + !c in
        u.(i + j) <- s land mask;
        c := s lsr base_bits
      done;
      u.(j + n) <- (u.(j + n) + !c) land mask
    end
    else u.(j + n) <- d;
    if j < Array.length q then q.(j) <- !qhat
  done

(* The shift that sets the top bit of a normalized divisor's top limb,
   and the divisor shifted by it. *)
let norm_shift b = base_bits - bits_of_limb b.(Array.length b - 1)

let shifted b s =
  let n = Array.length b in
  let v = Array.make n 0 in
  ignore (shl_into v 0 b n s : int);
  v

(* Normalized copy of [u.(0 .. n-1)]. *)
let prefix u n =
  let n = ref n in
  while !n > 0 && u.(!n - 1) = 0 do
    decr n
  done;
  Array.sub u 0 !n

(* [a] and [b] are normalized, [Array.length b >= 2] (single-limb
   divisors take the fast path) and [a >= b]. *)
let divmod_knuth a b =
  let n = Array.length b and la = Array.length a in
  let s = norm_shift b in
  let v = shifted b s in
  let u = Array.make (la + 1) 0 in
  u.(la) <- shl_into u 0 a la s;
  let q = Array.make (la - n + 1) 0 in
  knuth_loop u (la - n) v n q;
  shr_in_place u n s;
  (normalize q, prefix u n)

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_int a b.(0) in
    (q, of_int r)
  end
  else divmod_knuth a b

(* ------------------------------------------------------------------ *)
(* Fixed-width modular kernels                                        *)

(* The buffers below hold [k] limbs, zero-padded, where [k] is the
   modulus's limb count. Each call allocates its own: [Bigint.to_nat]
   hands out an operand's own limbs, which must never be written, and
   socket agents run these kernels from their own threads. *)

let check_operand name m a =
  if compare a m >= 0 then invalid_arg (name ^ ": operand not below the modulus")

let mod_mul m a b =
  let k = Array.length m in
  if k = 0 then raise Division_by_zero;
  check_operand "Nat.mod_mul" m a;
  check_operand "Nat.mod_mul" m b;
  if is_zero a || is_zero b then zero
  else if k = 1 then of_int ((a.(0) * b.(0)) mod m.(0))
  else begin
    (* The product of two operands below m fits in 2k limbs; shifted
       by Algorithm D's normalization, its top bits go to the spare limb. *)
    let s = norm_shift m in
    let la = Array.length a and lb = Array.length b in
    let u = Array.make ((2 * k) + 1) 0 in
    mul_into u a la b lb;
    u.(la + lb) <- shl_into u 0 u (la + lb) s;
    knuth_loop u k (shifted m s) k [||];
    shr_in_place u k s;
    prefix u k
  end

(* [r <- a - b] over [k] limbs, returning the borrow out; [r] may alias
   either operand. *)
let sub_k r a b k =
  let borrow = ref 0 in
  for i = 0 to k - 1 do
    let d = a.(i) - b.(i) - !borrow in
    r.(i) <- d land mask;
    borrow := (d asr base_bits) land 1
  done;
  !borrow

(* [r <- a + b] over [k] limbs, returning the carry out. *)
let add_k r a b k =
  let carry = ref 0 in
  for i = 0 to k - 1 do
    let s = a.(i) + b.(i) + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  !carry

(* [a >= b] over [k] limbs, from the top: a top-level function, since a
   local closure over [a] and [b] would allocate on every call. *)
let rec geq_from a b i =
  i < 0 || a.(i) > b.(i) || (a.(i) = b.(i) && geq_from a b (i - 1))

let geq_k a b k = geq_from a b (k - 1)

let rec zero_from u i k = i >= k || (u.(i) = 0 && zero_from u (i + 1) k)

(* Montgomery multiplication, CIOS (Koc, Acar and Kaliski, "Analyzing
   and comparing Montgomery multiplication algorithms", 1996) with the
   multiply and reduce passes fused: [r <- a b 2^(-30k) mod m] for
   [a, b < m] and odd [m], where [minv = -m^-1 mod 2^30] and [t] is
   (k+1)-limb scratch. Each outer step adds [a b_i] and the multiple of
   [m] that clears the low limb, and drops that limb: every sum below
   stays under 2^62, and [t < 2m] after every step. [r] may alias [a]
   or [b]. *)
let mont_mul r a b m minv k t =
  Array.fill t 0 (k + 1) 0;
  for i = 0 to k - 1 do
    let bi = b.(i) in
    let x = t.(0) + (a.(0) * bi) in
    let q = ((x land mask) * minv) land mask in
    let c = ref ((x + (q * m.(0))) lsr base_bits) in
    for j = 1 to k - 1 do
      let s = t.(j) + (a.(j) * bi) + (q * m.(j)) + !c in
      t.(j - 1) <- s land mask;
      c := s lsr base_bits
    done;
    let s = t.(k) + !c in
    t.(k - 1) <- s land mask;
    t.(k) <- s lsr base_bits
  done;
  if t.(k) <> 0 || geq_k t m k then ignore (sub_k r t m k : int)
  else Array.blit t 0 r 0 k

(* [-m0^-1 mod 2^30] for odd [m0] by Newton iteration: [x = m0] is an
   inverse to 3 bits, and each step [x <- x (2 - m0 x)] doubles that. *)
let neg_inv_limb m0 =
  let x = ref m0 in
  for _ = 1 to 4 do
    x := (!x * (2 - ((m0 * !x) land mask))) land mask
  done;
  (- !x) land mask

let check_odd name m =
  if Array.length m = 0 || m.(0) land 1 = 0 then
    invalid_arg (name ^ ": even modulus")

(* [x 2^(30k) mod m] for [x < m], by one Algorithm D remainder in
   place: the low k limbs of the result are the value, and the limbs
   above them are zero. *)
let to_mont m k x =
  if k = 1 then [| (if is_zero x then 0 else (x.(0) lsl base_bits) mod m.(0)) |]
  else begin
    let s = norm_shift m in
    let u = Array.make ((2 * k) + 1) 0 in
    let lx = Array.length x in
    u.(k + lx) <- shl_into u k x lx s;
    knuth_loop u k (shifted m s) k [||];
    shr_in_place u k s;
    u
  end

let mod_pow ~on_mul m b e =
  check_odd "Nat.mod_pow" m;
  check_operand "Nat.mod_pow" m b;
  let k = Array.length m in
  let minv = neg_inv_limb m.(0) and t = Array.make (k + 1) 0 in
  let bm = to_mont m k b and acc = to_mont m k one in
  (* Left-to-right square-and-multiply, from acc = 1. *)
  for i = num_bits e - 1 downto 0 do
    on_mul ();
    mont_mul acc acc acc m minv k t;
    if (e.(i / base_bits) lsr (i mod base_bits)) land 1 = 1 then begin
      on_mul ();
      mont_mul acc acc bm m minv k t
    end
  done;
  (* Leave Montgomery form: one more product, by 1. *)
  Array.fill bm 0 k 0;
  bm.(0) <- 1;
  mont_mul acc acc bm m minv k t;
  normalize acc

(* [x <- x / 2 mod m] for odd [m] and [x < m]: [x + m] is even when [x]
   is odd, and its carry out becomes the top bit of the half. *)
let halve_mod x m k =
  let top = if x.(0) land 1 = 0 then 0 else add_k x x m k in
  for i = 0 to k - 2 do
    x.(i) <- (x.(i) lsr 1) lor ((x.(i + 1) land 1) lsl (base_bits - 1))
  done;
  x.(k - 1) <- (x.(k - 1) lsr 1) lor (top lsl (base_bits - 1))

(* [x <- x - y mod m] for [x, y < m]. *)
let sub_mod x y m k = if sub_k x x y k = 1 then ignore (add_k x x m k : int)

(* Binary extended gcd (Knuth TAOCP vol. 2, 4.5.2, Algorithm B with
   cofactors). Invariants: u = a x1 and v = a x2 (mod m), and
   gcd(u, v) = gcd(a, m), which is odd, so halving u or v keeps it. *)
let mod_inv m a =
  check_odd "Nat.mod_inv" m;
  check_operand "Nat.mod_inv" m a;
  let k = Array.length m in
  let u = Array.make k 0 and v = Array.copy m in
  let x1 = Array.make k 0 and x2 = Array.make k 0 in
  Array.blit a 0 u 0 (Array.length a);
  x1.(0) <- 1;
  while not (zero_from u 0 k) do
    (* u and v are even here, so halving them mod m is a plain shift. *)
    while u.(0) land 1 = 0 do
      halve_mod u m k;
      halve_mod x1 m k
    done;
    while v.(0) land 1 = 0 do
      halve_mod v m k;
      halve_mod x2 m k
    done;
    if geq_k u v k then begin
      ignore (sub_k u u v k : int);
      sub_mod x1 x2 m k
    end
    else begin
      ignore (sub_k v v u k : int);
      sub_mod x2 x1 m k
    end
  done;
  (* u = 0 leaves v = gcd(a, m). *)
  if v.(0) = 1 && zero_from v 1 k then Some (normalize x2) else None

(* Decimal I/O works in chunks of 10^9 (a single limb). *)
let decimal_chunk = 1_000_000_000
let decimal_chunk_digits = 9

let to_string a =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go a acc =
      if is_zero a then acc
      else begin
        let q, r = divmod_int a decimal_chunk in
        go q (r :: acc)
      end
    in
    match go a [] with
    | [] -> "0"
    | first :: rest ->
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
        Buffer.contents buf
  end

let to_hex a =
  if is_zero a then "0"
  else begin
    let nibbles = (num_bits a + 3) / 4 in
    let buf = Buffer.create nibbles in
    for i = nibbles - 1 downto 0 do
      let v =
        ((if testbit a ((4 * i) + 3) then 8 else 0)
        lor (if testbit a ((4 * i) + 2) then 4 else 0)
        lor (if testbit a ((4 * i) + 1) then 2 else 0)
        lor if testbit a (4 * i) then 1 else 0)
      in
      Buffer.add_char buf "0123456789abcdef".[v]
    done;
    Buffer.contents buf
  end

let of_string_dec s =
  let acc = ref zero and chunk = ref 0 and chunk_len = ref 0 and seen = ref false in
  String.iter
    (fun ch ->
      match ch with
      | '0' .. '9' ->
          seen := true;
          chunk := (!chunk * 10) + (Char.code ch - Char.code '0');
          incr chunk_len;
          if !chunk_len = decimal_chunk_digits then begin
            acc := add_int (mul_int !acc decimal_chunk) !chunk;
            chunk := 0;
            chunk_len := 0
          end
      | '_' -> ()
      | _ -> invalid_arg "Nat.of_string: bad decimal digit")
    s;
  if not !seen then invalid_arg "Nat.of_string: empty";
  if !chunk_len > 0 then begin
    let scale =
      let rec pow10 n = if n = 0 then 1 else 10 * pow10 (n - 1) in
      pow10 !chunk_len
    in
    acc := add_int (mul_int !acc scale) !chunk
  end;
  !acc

let of_string_hex s =
  let acc = ref zero and seen = ref false in
  String.iter
    (fun ch ->
      let v =
        match ch with
        | '0' .. '9' -> Char.code ch - Char.code '0'
        | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
        | '_' -> -1
        | _ -> invalid_arg "Nat.of_string: bad hex digit"
      in
      if v >= 0 then begin
        seen := true;
        acc := add_int (mul_int !acc 16) v
      end)
    s;
  if not !seen then invalid_arg "Nat.of_string: empty";
  !acc

let of_string s =
  if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
    of_string_hex (String.sub s 2 (String.length s - 2))
  else of_string_dec s

let byte_size a = max 1 ((num_bits a + 7) / 8)

let to_bytes_be a =
  let n = byte_size a in
  String.init n (fun i ->
      let byte_index = n - 1 - i in
      let v =
        ((if testbit a ((8 * byte_index) + 7) then 128 else 0)
        lor (if testbit a ((8 * byte_index) + 6) then 64 else 0)
        lor (if testbit a ((8 * byte_index) + 5) then 32 else 0)
        lor (if testbit a ((8 * byte_index) + 4) then 16 else 0)
        lor (if testbit a ((8 * byte_index) + 3) then 8 else 0)
        lor (if testbit a ((8 * byte_index) + 2) then 4 else 0)
        lor (if testbit a ((8 * byte_index) + 1) then 2 else 0)
        lor if testbit a (8 * byte_index) then 1 else 0)
      in
      Char.chr v)

let of_bytes_be s =
  let acc = ref zero in
  String.iter (fun ch -> acc := add_int (mul_int !acc 256) (Char.code ch)) s;
  !acc

let pp fmt a = Format.pp_print_string fmt (to_string a)
let limbs a = Array.copy a
