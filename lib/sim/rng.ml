let mix = Numeric.Splitmix.mix
let uniform = Numeric.Splitmix.uniform
let stream ~seed ~sample = mix (mix (seed + 1) + (sample * Numeric.Splitmix.gamma))
