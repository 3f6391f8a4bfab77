open Reversible
open Permgroup

let composer census =
  let library = Search.library (Fmcf.search census) in
  if Library.qubits library <> 3 then
    invalid_arg "Spectrum.composer: only 3-qubit libraries are supported";
  let members =
    List.concat_map (fun level -> level.Fmcf.members) (Fmcf.levels census)
  in
  let generators =
    List.filter_map
      (fun (m : Fmcf.member) ->
        if m.Fmcf.cost = 0 then None
        else Some (m, Revfun.to_perm m.Fmcf.func))
      members
  in
  (* Dijkstra over the zero-fixing group (order 5040 for 3 qubits); edges
     are right-multiplications by census members, weighted by their cost.
     The settled table records, per function, the last member used and
     the predecessor — unwinding gives the factor sequence. *)
  let max_cost = 64 in
  let best : (string, int) Hashtbl.t = Hashtbl.create 8192 in
  let parent : (string, Fmcf.member * string) Hashtbl.t = Hashtbl.create 8192 in
  let settled : (string, unit) Hashtbl.t = Hashtbl.create 8192 in
  let buckets = Array.make (max_cost + 1) [] in
  let id = Perm.identity 8 in
  Hashtbl.replace best (Perm.key id) 0;
  buckets.(0) <- [ id ];
  for c = 0 to max_cost do
    List.iter
      (fun p ->
        let key = Perm.key p in
        match Hashtbl.find_opt best key with
        | Some cost when cost = c && not (Hashtbl.mem settled key) ->
            Hashtbl.add settled key ();
            List.iter
              (fun ((m : Fmcf.member), gen) ->
                let child = Perm.mul p gen in
                let child_cost = c + m.Fmcf.cost in
                if child_cost <= max_cost then begin
                  let child_key = Perm.key child in
                  let improves =
                    match Hashtbl.find_opt best child_key with
                    | Some existing -> child_cost < existing
                    | None -> true
                  in
                  if improves && not (Hashtbl.mem settled child_key) then begin
                    Hashtbl.replace best child_key child_cost;
                    Hashtbl.replace parent child_key (m, key);
                    buckets.(child_cost) <- child :: buckets.(child_cost)
                  end
                end)
              generators
        | Some _ | None -> ())
      buckets.(c)
  done;
  fun target ->
    let mask, remainder =
      if Library.coset_reduction library then Mce.strip_not_layer target
      else (0, target)
    in
    let finish cascade =
      Some { Mce.target; not_mask = mask; cascade; cost = List.length cascade }
    in
    let rec unwind key acc =
      match Hashtbl.find_opt parent key with
      | None -> acc
      | Some (m, predecessor) ->
          unwind predecessor (Fmcf.cascade_of_member census m @ acc)
    in
    let key = Perm.key (Revfun.to_perm remainder) in
    if Revfun.is_identity remainder then finish []
    else if Hashtbl.mem settled key then finish (unwind key [])
    else None

let express_upper census target = composer census target
