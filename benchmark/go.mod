module selfheal/benchmark

go 1.22

require selfheal v0.0.0

replace selfheal => ../
