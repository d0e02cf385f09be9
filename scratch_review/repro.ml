module Pipeline = Hyperq_core.Pipeline

let () =
  (* duplicate column names in pruned join schema *)
  let t = Pipeline.create () in
  ignore (Pipeline.run_sql t "CREATE TABLE a (id INTEGER)");
  ignore (Pipeline.run_sql t "CREATE TABLE b (id INTEGER)");
  let sql = "SELECT * FROM a, b WHERE a.id = 1 AND a.id = 2" in
  print_endline (Pipeline.translate t sql);
  (try
     let o = Pipeline.run_sql t sql in
     Printf.printf "rows: %d\n" o.Pipeline.out_count
   with e -> Printf.printf "raised: %s\n" (Printexc.to_string e))
