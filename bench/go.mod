module hypermm/bench

go 1.22

require hypermm v0.0.0

replace hypermm => ../
