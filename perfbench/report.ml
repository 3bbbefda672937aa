(* What one run prints: human-readable lines, then one JSON object as the
   last line of standard output. *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

type outcome = {
  metrics : metric list;
  attempted : int;
  problems : string list;
      (* one line per failure, oracle mismatch or shed request *)
}

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* every digit as measured; integral values print as integers *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_metrics ms =
  List.iter
    (fun m ->
      say "  %-28s %16s %-6s %s" m.name (number m.value) m.unit_ m.note)
    ms

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_line ~correct ~attempted ~failed ms =
  let metric m =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
      (if Float.is_finite m.value then number m.value else "null")
      (json_string m.unit_)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric ms))
