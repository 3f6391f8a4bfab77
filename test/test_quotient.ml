(* Symmetry-quotient parity tests: the quotiented census must be
   observationally identical to the raw one — Table 2, |S8[k]|, the exact
   1260 depth-7 members with equal costs and witness cascades, and
   byte-identical QSYNIDX2 files; the exhaustive indexes pinned by
   digest; witnesses independent of reconstruction order — plus QCheck
   properties of the canonical form and the jobs-independence of the
   quotient arena. *)

open Synthesis

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

let qcheck_test ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let library3 = Library.make (Mvl.Encoding.make ~qubits:3)
let sym3 = lazy (Symmetry.create library3)
let raw7 = lazy (Fmcf.run ~max_depth:7 library3)
let quot7 = lazy (Fmcf.run ~max_depth:7 ~quotient:true library3)

let with_temp_file f =
  let path = Filename.temp_file "qsynth_quot" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let func_key m = Permgroup.Perm.key (Reversible.Revfun.to_perm m.Fmcf.func)

(* {1 Census parity} *)

let test_table2_parity () =
  let raw = Lazy.force raw7 and quot = Lazy.force quot7 in
  checkb "raw is not quotiented" false (Fmcf.quotiented raw);
  checkb "quotient is quotiented" true (Fmcf.quotiented quot);
  checkb "raw paper counts exact" true (Fmcf.paper_counts_exact raw);
  checkb "quotient paper counts inexact" false (Fmcf.paper_counts_exact quot);
  check
    Alcotest.(list (pair int int))
    "|G[k]|" (Fmcf.counts raw) (Fmcf.counts quot);
  check
    Alcotest.(list (pair int int))
    "|S8[k]|" (Fmcf.s8_counts raw) (Fmcf.s8_counts quot);
  check Alcotest.int "total functions" (Fmcf.total_found raw)
    (Fmcf.total_found quot);
  check Alcotest.int "1260 functions" 1260 (Fmcf.total_found quot)

(* Every one of the 1260 members: same function set, same cost, and the
   reconstructed witness cascade is gate-for-gate identical. *)
let test_members_parity () =
  let members census =
    let tbl = Hashtbl.create 2048 in
    Fmcf.iter_members census (fun ~cost m ->
        Hashtbl.replace tbl (func_key m) (cost, Fmcf.cascade_of_member census m));
    tbl
  in
  let raw = Lazy.force raw7 and quot = Lazy.force quot7 in
  let rm = members raw and qm = members quot in
  check Alcotest.int "member count" (Hashtbl.length rm) (Hashtbl.length qm);
  Hashtbl.iter
    (fun key (cost, cascade) ->
      match Hashtbl.find_opt qm key with
      | None -> Alcotest.failf "function missing from the quotient census"
      | Some (qcost, qcascade) ->
          if cost <> qcost then
            Alcotest.failf "cost differs: raw %d, quotient %d" cost qcost;
          if not (List.equal Gate.equal cascade qcascade) then
            Alcotest.failf "witness cascade differs at cost %d" cost)
    rm

let test_index_byte_identity () =
  with_temp_file @@ fun path_raw ->
  with_temp_file @@ fun path_quot ->
  Census_index.save (Census_index.build (Lazy.force raw7)) path_raw;
  Census_index.save (Census_index.build (Lazy.force quot7)) path_quot;
  checkb "QSYNIDX2 files byte-identical" true
    (String.equal (read_file path_raw) (read_file path_quot))

(* The exhaustive quotient index of each registered library, pinned by
   the MD5 of its bytes.  A deliberate change to the witness rule moves
   these pins, and only that should. *)
let index_pins =
  [
    ("paper18", "7921723bbde1af4ac193f7d7a1fecc97");
    ("nct", "3346513fa4e3c18510f1b67aa81ef412");
    ("nft", "2f92e5bacc5c0e3ccae3f7cecd9395da");
  ]

let test_exhaustive_index_pins () =
  List.iter
    (fun (name, pin) ->
      let library = Library.of_name ~qubits:3 name in
      let census = Fmcf.run ~max_depth:13 ~quotient:true library in
      with_temp_file @@ fun path ->
      Census_index.save (Census_index.build census) path;
      check Alcotest.string (name ^ " index digest") pin
        (Digest.to_hex (Digest.file path));
      let idx = Census_index.load ~verify:Full library path in
      checkb (name ^ " index complete") true (Census_index.is_complete idx))
    index_pins

(* The witness memo answers the same gates whatever order members are
   asked in: level order on one fresh census, deepest level first on
   another. *)
let witnesses ~deepest_first census =
  let levels = Fmcf.levels census in
  let levels = if deepest_first then List.rev levels else levels in
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun (level : Fmcf.level) ->
      List.iter
        (fun m -> Hashtbl.replace tbl (func_key m) (Fmcf.gate_indices census m))
        level.members)
    levels;
  tbl

let check_same_witnesses what a b =
  check Alcotest.int (what ^ ": member count") (Hashtbl.length a) (Hashtbl.length b);
  Hashtbl.iter
    (fun key gates ->
      match Hashtbl.find_opt b key with
      | Some gates' when gates = gates' -> ()
      | Some _ -> Alcotest.failf "%s: witness differs" what
      | None -> Alcotest.failf "%s: function missing" what)
    a

let test_memo_order () =
  List.iter
    (fun (name, _) ->
      let library = Library.of_name ~qubits:3 name in
      let run () = Fmcf.run ~max_depth:13 ~quotient:true library in
      check_same_witnesses name
        (witnesses ~deepest_first:false (run ()))
        (witnesses ~deepest_first:true (run ())))
    index_pins;
  (* and across modes, each peeled in the other order *)
  check_same_witnesses "raw vs quotient depth 6"
    (witnesses ~deepest_first:true (Fmcf.run ~max_depth:6 library3))
    (witnesses ~deepest_first:false (Fmcf.run ~max_depth:6 ~quotient:true library3));
  (* a member the census does not hold, or holds at another cost, is
     refused rather than memoised *)
  let shallow = Fmcf.run ~max_depth:3 ~quotient:true library3 in
  let deep = List.hd (Fmcf.members_at (Lazy.force quot7) ~cost:7) in
  let cheap = List.hd (Fmcf.members_at shallow ~cost:2) in
  List.iter
    (fun m ->
      match Fmcf.gate_indices shallow m with
      | _ -> Alcotest.fail "foreign member accepted"
      | exception Invalid_argument _ -> ())
    [ deep; { cheap with cost = 3 } ];
  check Alcotest.int "refusals leave the memo clean" 2
    (List.length (Fmcf.gate_indices shallow cheap))

(* {1 Canonical-form properties} *)

(* canon is constant on orbits and idempotent, over arbitrary image
   vectors (any point value, not just reachable states). *)
let test_canon_invariant_qcheck =
  let sym = Lazy.force sym3 in
  let size = Mvl.Encoding.size (Library.encoding library3) in
  let gen =
    QCheck2.Gen.(
      pair
        (int_range 0 (Symmetry.order sym - 1))
        (string_size ~gen:(map Char.chr (int_range 0 (size - 1)))
           (pure (Symmetry.num_binary sym))))
  in
  qcheck_test "canon(g.s) = canon(s)" gen (fun (g, v) ->
      let c, _ = Symmetry.canon sym v in
      let c', _ = Symmetry.canon sym (Symmetry.conjugate_image sym g v) in
      let c'', i = Symmetry.canon sym c in
      String.equal c c' && String.equal c c'' && i = 0)

(* The same invariance over every reachable state of a shallow raw
   search — the vectors the engine actually canonicalizes. *)
let test_canon_invariant_reachable () =
  let sym = Lazy.force sym3 in
  let s = Search.create library3 in
  for _ = 1 to 3 do
    ignore (Search.step_handles s)
  done;
  for d = 0 to 3 do
    Array.iter
      (fun h ->
        let img = Search.binary_image_of_handle s h in
        let c, _ = Symmetry.canon sym img in
        for g = 0 to Symmetry.order sym - 1 do
          let c', _ = Symmetry.canon sym (Symmetry.conjugate_image sym g img) in
          if not (String.equal c c') then
            Alcotest.failf "canon not orbit-constant at depth %d" d
        done)
      (Search.handles_at_depth s d)
  done

(* {1 Jobs determinism} *)

let quotient_search_at ~jobs depth =
  let s = Search.create ~jobs ~symmetry:(Lazy.force sym3) library3 in
  for _ = 1 to depth do
    ignore (Search.step_handles s)
  done;
  s

(* The quotient arena is a pure function of the library: jobs=1 and
   jobs=4 store the same canonical keys under the same handles, record
   the same conjugators, and end on the same frontier. *)
let test_jobs_determinism () =
  let depth = 6 in
  let s1 = quotient_search_at ~jobs:1 depth and s4 = quotient_search_at ~jobs:4 depth in
  check Alcotest.int "size" (Search.size s1) (Search.size s4);
  for d = 0 to depth do
    let h1 = Search.handles_at_depth s1 d and h4 = Search.handles_at_depth s4 d in
    check Alcotest.(array int) (Printf.sprintf "level %d handles" d) h1 h4;
    check Alcotest.(array string)
      (Printf.sprintf "level %d keys" d)
      (Array.map (Search.key_of_handle s1) h1)
      (Array.map (Search.key_of_handle s4) h4);
    check Alcotest.(array int)
      (Printf.sprintf "level %d conjugators" d)
      (Array.map (Search.conj_of_handle s1) h1)
      (Array.map (Search.conj_of_handle s4) h4)
  done;
  check Alcotest.(array int) "frontier handles" (Search.frontier_handles s1)
    (Search.frontier_handles s4);
  check Alcotest.(array string) "frontier keys"
    (Array.map (Search.key_of_handle s1) (Search.frontier_handles s1))
    (Array.map (Search.key_of_handle s4) (Search.frontier_handles s4))

let () =
  Alcotest.run "quotient"
    [
      ( "parity",
        [
          Alcotest.test_case "table 2 and |S8[k]|" `Quick test_table2_parity;
          Alcotest.test_case "1260 members and cascades" `Quick
            test_members_parity;
          Alcotest.test_case "index byte-identity" `Quick
            test_index_byte_identity;
          Alcotest.test_case "exhaustive index pins" `Quick
            test_exhaustive_index_pins;
          Alcotest.test_case "witness memo order" `Quick test_memo_order;
        ] );
      ( "canonical form",
        [
          test_canon_invariant_qcheck;
          Alcotest.test_case "reachable states" `Quick
            test_canon_invariant_reachable;
        ] );
      ( "jobs determinism",
        [
          Alcotest.test_case "quotient arena keys and frontier" `Quick
            test_jobs_determinism;
        ] );
    ]
