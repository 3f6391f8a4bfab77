let of_output_list ~bits s =
  let outputs =
    String.split_on_char ',' s
    |> List.map (fun part ->
           match int_of_string_opt (String.trim part) with
           | Some v -> v
           | None -> invalid_arg ("Spec.of_output_list: bad entry " ^ part))
  in
  if List.length outputs <> 1 lsl bits then
    invalid_arg "Spec.of_output_list: wrong number of outputs";
  Revfun.of_outputs ~bits outputs

let to_output_list f =
  String.concat "," (List.map string_of_int (Revfun.output_column f))

let of_cycles ~bits s =
  Revfun.of_perm ~bits (Permgroup.Cycles.of_string ~degree:(1 lsl bits) s)

let of_name s =
  match String.lowercase_ascii s with
  | "toffoli" -> Some Gates.toffoli3
  | "peres" | "g1" -> Some Gates.g1
  | "g2" -> Some Gates.g2
  | "g3" -> Some Gates.g3
  | "g4" -> Some Gates.g4
  | "fredkin" -> Some Gates.fredkin3
  | "identity" -> Some (Revfun.identity ~bits:3)
  | _ -> None

let of_formulas ~bits s =
  Boolexpr.revfun_of_formulas ~bits (List.map String.trim (String.split_on_char ';' s))

let parse ~bits s =
  match of_name s with
  | Some f when Revfun.bits f = bits -> f
  | Some _ -> invalid_arg "Spec.parse: named circuit has a different width"
  | None -> (
      let trimmed = String.trim s in
      if String.length trimmed > 0 && trimmed.[0] = '(' then of_cycles ~bits trimmed
      else if String.contains trimmed ';' then of_formulas ~bits trimmed
      else of_output_list ~bits trimmed)
