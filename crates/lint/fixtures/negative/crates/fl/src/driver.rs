//! Negative fixture: the one door to clients may sample, broadcast and
//! call the trainer — it is the row's home.

pub fn train_round(ctx: &RoundCtx) -> usize {
    let sampled = sample_clients(ctx.clients, ctx.rate);
    ctx.transport.broadcast(&sampled);
    ctx.trainer.train_remote(&sampled)
}
