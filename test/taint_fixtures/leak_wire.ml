(* Seeded leak: a raw PRNG draw published on the simulated network —
   an in-scope draw reaching Engine.publish is a T-wire crossing. *)
let leak eng rng =
  let secret = Dmw_bigint.Prng.below rng (Dmw_bigint.Bigint.of_int 97) in
  Dmw_sim.Engine.publish eng ~src:0 ~tag:"draw" ~bytes:8 secret
