let transfer = 100
let broadcast = 200
let reduce = 300
let gatherv = 400
let shift = 500
let schedule_indices = 700
let exec_data = 800
let redistribute = 900
let concat = 1000

let family_name tag =
  match tag / 100 * 100 with
  | 100 -> "transfer"
  | 200 -> "broadcast/multicast"
  | 300 -> "reduction"
  | 400 -> "gather/concatenation"
  | 500 -> "shift"
  | 600 | 700 -> "inspector (scheduling)"
  | 800 -> "executor (data)"
  | 900 -> "redistribution"
  | 1000 -> "concatenation"
  | _ -> "other"
