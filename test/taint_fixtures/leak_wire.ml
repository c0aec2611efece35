(* Seeded leak: a raw PRNG draw sent on the simulated network —
   an in-scope draw reaching Engine.send is a T-wire crossing. *)
let leak eng rng =
  let secret = Dmw_bigint.Prng.below rng (Dmw_bigint.Bigint.of_int 97) in
  Dmw_sim.Engine.send eng ~src:0 ~dst:1 ~tag:"draw" ~bytes:8 secret
