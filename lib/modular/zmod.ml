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

(* A value within one modulus of [0, m) -- a sum or difference of
   canonical operands -- needs one addition or subtraction, not a
   division. *)
let normalize m a =
  check_modulus m;
  if Bigint.sign a < 0 then
    let b = Bigint.add a m in
    if Bigint.sign b >= 0 then b else Bigint.erem a m
  else if Bigint.compare a m < 0 then a
  else
    let b = Bigint.sub a m in
    if Bigint.compare b m < 0 then b else Bigint.erem a m

let add m a b = normalize m (Bigint.add a b)
let sub m a b = normalize m (Bigint.sub a b)
let neg m a = normalize m (Bigint.neg a)

let nat = Bigint.to_nat

let mul m a b =
  Counters.bump_mul ();
  let a = normalize m a and b = normalize m b in
  Bigint.of_nat (Nat.mod_mul (nat m) (nat a) (nat b))

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
  let a = normalize m a in
  if Bigint.is_even m then begin
    let g, x, _ = egcd a m in
    if not (Bigint.equal g Bigint.one) then raise Not_found;
    Bigint.erem x m
  end
  else
    match Nat.mod_inv (nat m) (nat a) with
    | Some x -> Bigint.of_nat x
    | None -> raise Not_found

let rec pow m b e =
  check_modulus m;
  if Bigint.is_even m then invalid_arg "Zmod.pow: even modulus";
  if Bigint.sign e < 0 then pow m (inv m b) (Bigint.neg e)
  else begin
    Counters.bump_pow ();
    Bigint.of_nat
      (Nat.mod_pow ~on_mul:Counters.bump_mul (nat m) (nat (normalize m b))
         (nat e))
  end

let div m a b = mul m a (inv m b)
