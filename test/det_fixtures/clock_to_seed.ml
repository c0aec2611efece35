(* Seeded determinism defect: a wall-clock reading used as a PRNG seed.
   dmw_det must flag the Prng.create call (D-seed) — seeds are
   arithmetic on (seed, params), never clocks. *)

let reseed () =
  let now = int_of_float (Unix.gettimeofday ()) in
  Dmw_bigint.Prng.create ~seed:now
