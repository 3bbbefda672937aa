(* The shared JSON codec: string escaping round-trips every byte, and
   manifest lines and journal records written by the earlier
   purpose-built writers (captured verbatim below) still decode to the
   same values through it. *)

open Helpers

let prop_escape_roundtrip =
  qcheck2 ~count:500 ~print:(Printf.sprintf "%S")
    "parse (escape_string s) = Str s on arbitrary bytes" QCheck2.Gen.string
    (fun s -> Json.equal (Json.parse (Json.escape_string s)) (Json.Str s))

let test_escape_every_byte () =
  let all = String.init 256 Char.chr in
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "%S round-trips" s) true
        (Json.parse (Json.escape_string s) = Json.Str s))
    (all :: List.init 256 (fun i -> String.make 1 (Char.chr i)))

(* --- files written before the codec was shared ----------------------- *)

let legacy_manifest_line =
  {|{"id": 4, "label": "a \"quoted\"\nlabel\\x", "status": "crash", "message": "tab\there \u0001 café", "attempts": 3, "retried": 2, "backend": "compiled", "degraded": true, "injected": "raise", "wall_ms": 12.500}|}

let legacy_journal =
  [
    {|6c2b03d8 {"t": "program", "v": 1, "key": "cfg:0123abcd", "name": "wc", "source": "int main() {\n\tprint_int(1); /* \"q\" \\ */\n  return 0;\n}\n", "drift": "v1 g2 e1234 0:3,1;4:7", "last_opt": 1000, "ranges": "0:12:5,0,7;3:0:", "combs": "1:4:2,2"}|};
    {|6fa1c1a6 {"t": "bank", "v": 1, "tallies": "0.2.2048:100:7;4.2.256:100:9"}|};
  ]

let test_legacy_manifest () =
  let expected =
    Driver.Manifest.entry ~label:"a \"quoted\"\nlabel\\x"
      ~message:"tab\there \001 caf\xc3\xa9" ~attempts:3 ~retried:2
      ~backend:"compiled" ~degraded:true ~injected:"raise" ~wall_ms:12.5 ~id:4
      ~status:"crash" ()
  in
  check_bool "legacy manifest line decodes" true
    (Driver.Manifest.entry_of_line legacy_manifest_line = expected);
  check_bool "and re-encodes to the same entry" true
    (Driver.Manifest.entry_of_line (Driver.Manifest.to_line expected)
    = expected)

let test_legacy_journal () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bromc_json_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  let journal = Driver.State.journal_path ~dir in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove journal;
      Unix.rmdir dir)
    (fun () ->
      let oc = open_out_bin journal in
      List.iter (fun l -> output_string oc (l ^ "\n")) legacy_journal;
      close_out oc;
      let r = Driver.State.load ~dir in
      check_int "every frame consumed" 2 r.Driver.State.r_records;
      check_int "nothing skipped" 0 r.Driver.State.r_skipped;
      check_bool "program record" true
        (r.Driver.State.r_programs
        = [
            {
              Driver.State.p_key = "cfg:0123abcd";
              p_name = "wc";
              p_source =
                "int main() {\n\tprint_int(1); /* \"q\" \\ */\n  return 0;\n}\n";
              p_generation = 2;
              p_signature = "0:3,1;4:7";
              p_executions = 1234;
              p_last_opt_execs = 1000;
              p_ranges = [ (0, [| 5; 0; 7 |], 12); (3, [||], 0) ];
              p_combs = [ (1, [| 2; 2 |], 4) ];
            };
          ]);
      check_bool "bank record" true
        (r.Driver.State.r_bank
        = [ ((0, 2, 2048), (100, 7)); ((4, 2, 256), (100, 9)) ]))

let suite =
  [
    prop_escape_roundtrip;
    case "escape_string round-trips every byte 0-255" test_escape_every_byte;
    case "a manifest line from the old writer decodes" test_legacy_manifest;
    case "journal records from the old writer restore" test_legacy_journal;
  ]
