module narada/bench

go 1.22

require narada v0.0.0

replace narada => ../
