open Dmw_bigint

module Counters = struct
  (* Bumped from every agent thread during concurrent auctions —
     atomics, or the counts drift under contention. *)
  let enabled = Atomic.make false
  let muls = Atomic.make 0
  let pows = Atomic.make 0

  let enable () = Atomic.set enabled true
  let disable () = Atomic.set enabled false

  let reset () =
    Atomic.set muls 0;
    Atomic.set pows 0

  let multiplications () = Atomic.get muls
  let exponentiations () = Atomic.get pows
  let bump_mul () = if Atomic.get enabled then Atomic.incr muls
  let bump_pow () = if Atomic.get enabled then Atomic.incr pows
end

let check_modulus m =
  if Bigint.compare m Bigint.zero <= 0 then
    invalid_arg "Zmod: modulus must be positive"

let normalize m a =
  check_modulus m;
  Bigint.erem a m

let add m a b = normalize m (Bigint.add a b)
let sub m a b = normalize m (Bigint.sub a b)
let neg m a = normalize m (Bigint.neg a)

let mul m a b =
  Counters.bump_mul ();
  normalize m (Bigint.mul a b)

let sqr m a = mul m a a

let egcd a b =
  (* Invariants: old_r = a*old_s + b*old_t, r = a*s + b*t. *)
  let rec go old_r r old_s s old_t t =
    if Bigint.is_zero r then (old_r, old_s, old_t)
    else begin
      let q, rem = Bigint.ediv_rem old_r r in
      go r rem s (Bigint.sub old_s (Bigint.mul q s)) t (Bigint.sub old_t (Bigint.mul q t))
    end
  in
  let g, x, y = go a b Bigint.one Bigint.zero Bigint.zero Bigint.one in
  if Bigint.sign g < 0 then (Bigint.neg g, Bigint.neg x, Bigint.neg y)
  else (g, x, y)

let gcd a b =
  let g, _, _ = egcd a b in
  g

let inv m a =
  check_modulus m;
  let a = Bigint.erem a m in
  let g, x, _ = egcd a m in
  if not (Bigint.equal g Bigint.one) then raise Not_found;
  Bigint.erem x m

let rec pow m b e =
  check_modulus m;
  if Bigint.sign e < 0 then pow m (inv m b) (Bigint.neg e)
  else begin
    Counters.bump_pow ();
    let b = Bigint.erem b m in
    (* Left-to-right binary exponentiation. *)
    let acc = ref Bigint.one in
    for i = Bigint.num_bits e - 1 downto 0 do
      acc := mul m !acc !acc;
      if Bigint.testbit e i then acc := mul m !acc b
    done;
    !acc
  end

let div m a b = mul m a (inv m b)
