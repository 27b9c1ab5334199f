module nvalloc/benchmark

go 1.22

require nvalloc v0.0.0

replace nvalloc => ../
