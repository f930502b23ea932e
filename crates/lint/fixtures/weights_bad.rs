//! Fixture: writes weight cells through `Layer::weights()`, so the
//! written units are never flagged and the next table build keeps
//! their rows in stale buckets. A violation anywhere but layer.rs and
//! hogwild.rs.

pub fn poke(net: &Network, layer: &Layer, values: &[f32]) {
    layer.weights().set(41, 3, 2.5);
    net.layers()[1].weights().flat().add_racy(7, 0.5);
    layer
        .weights()
        .flat()
        .copy_from(values);
}
