(** Jimple-flavoured pretty-printing of methods and classes, used by the
    examples and by SSG dumps. *)

let pp_access ppf (a : Jmethod.access) =
  let tags =
    List.filter_map
      (fun (b, s) -> if b then Some s else None)
      [ a.is_public, "public"; a.is_private, "private"; a.is_static, "static";
        a.is_abstract, "abstract"; a.is_final, "final"; a.is_native, "native" ]
  in
  Fmt.string ppf (String.concat " " tags)

let pp_method ppf (m : Jmethod.t) =
  Fmt.pf ppf "  %a %s@." pp_access m.access (Jsig.sub_signature m.msig);
  match m.body with
  | None -> Fmt.pf ppf "    <no body>@."
  | Some body ->
    Array.iteri (fun i st -> Fmt.pf ppf "    %3d: %s@." i (Stmt.to_string st))
      body

let pp_class ppf (c : Jclass.t) =
  let kind = if c.is_interface then "interface" else "class" in
  Fmt.pf ppf "%s %s" kind c.name;
  (match c.super with Some s -> Fmt.pf ppf " extends %s" s | None -> ());
  if c.interfaces <> [] then
    Fmt.pf ppf " implements %s" (String.concat ", " c.interfaces);
  Fmt.pf ppf "@.";
  List.iter (fun f -> Fmt.pf ppf "  field %s@." (Jsig.field_to_string f))
    c.fields;
  List.iter (pp_method ppf) c.methods
